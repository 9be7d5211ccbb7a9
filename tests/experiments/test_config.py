"""Tests for the strategy/workflow configuration (Fig. 4 legend)."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.config import paper_strategies, paper_workflows, strategy


class TestPaperStrategies:
    def test_exactly_nineteen(self):
        assert len(paper_strategies()) == 19

    def test_labels_match_figure4_legend(self):
        labels = [s.label for s in paper_strategies()]
        for policy in (
            "StartParNotExceed",
            "StartParExceed",
            "AllParExceed",
            "AllParNotExceed",
            "OneVMperTask",
        ):
            for sfx in ("s", "m", "l"):
                assert f"{policy}-{sfx}" in labels
        for dyn in ("CPA-Eager", "GAIN", "AllPar1LnS", "AllPar1LnSDyn"):
            assert dyn in labels

    def test_labels_unique(self):
        labels = [s.label for s in paper_strategies()]
        assert len(set(labels)) == len(labels)

    def test_dynamic_flags(self):
        by_label = {s.label: s for s in paper_strategies()}
        assert by_label["CPA-Eager"].dynamic
        assert by_label["GAIN"].dynamic
        assert by_label["AllPar1LnSDyn"].dynamic
        assert not by_label["AllPar1LnS"].dynamic
        assert not by_label["OneVMperTask-s"].dynamic

    def test_lookup(self):
        assert strategy("gain").label == "GAIN"
        with pytest.raises(ExperimentError):
            strategy("TurboSchedule")

    def test_specs_run(self, paper_workflow):
        platform = CloudPlatform.ec2()
        spec = strategy("AllParExceed-m")
        sched = spec.run(paper_workflow, platform)
        assert all(vm.itype.name == "medium" for vm in sched.vms)


class TestPaperWorkflows:
    def test_four_shapes(self):
        wfs = paper_workflows()
        assert set(wfs) == {"montage", "cstem", "mapreduce", "sequential"}

    def test_montage_is_24_tasks(self):
        assert len(paper_workflows()["montage"]) == 24

    def test_one_shape_by_name(self):
        # imported here: the ``paper_workflow`` fixture shares the name
        from repro.experiments.config import paper_workflow

        assert paper_workflow("cstem").name == paper_workflows()["cstem"].name

    def test_unknown_name_suggests_one(self):
        from repro.experiments.config import paper_workflow

        with pytest.raises(ExperimentError, match="did you mean 'mapreduce'"):
            paper_workflow("map_reduce")
