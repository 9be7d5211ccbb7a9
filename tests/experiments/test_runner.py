"""Tests for the sweep runner."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.baseline import reference_schedule
from repro.errors import ExperimentError
from repro.experiments.config import paper_workflows, strategy
from repro.experiments.runner import SweepResult, run_strategy, run_sweep
from repro.experiments.scenarios import scenario
from repro.workflows.generators import sequential


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


@pytest.fixture(scope="module")
def small_sweep(platform):
    """A reduced sweep: 2 workflows x 2 scenarios x 3 strategies."""
    return run_sweep(
        platform=platform,
        workflows={"seq": sequential(6), "montage": paper_workflows()["montage"]},
        scenarios=[scenario("pareto", platform), scenario("best", platform)],
        strategies=[
            strategy("OneVMperTask-s"),
            strategy("StartParExceed-s"),
            strategy("AllPar1LnS"),
        ],
        seed=99,
        verify=True,
    )


class TestRunStrategy:
    def test_metrics_against_reference(self, platform):
        wf = sequential(4)
        ref = reference_schedule(wf, platform)
        m = run_strategy(strategy("StartParExceed-s"), wf, platform, reference=ref)
        assert m.label == "StartParExceed-s"
        assert m.savings_pct > 0

    def test_reference_computed_when_missing(self, platform):
        wf = sequential(4)
        m = run_strategy(strategy("OneVMperTask-s"), wf, platform)
        assert m.gain_pct == pytest.approx(0.0)
        assert m.loss_pct == pytest.approx(0.0)

    def test_verify_path(self, platform):
        wf = sequential(4)
        m = run_strategy(strategy("AllPar1LnS"), wf, platform, verify=True)
        assert m.makespan > 0


class TestRunSweep:
    def test_grid_complete(self, small_sweep):
        assert small_sweep.scenarios() == ["pareto", "best"]
        for sc in small_sweep.scenarios():
            assert small_sweep.workflows(sc) == ["seq", "montage"]
            for wf in small_sweep.workflows(sc):
                assert len(small_sweep.strategies(sc, wf)) == 3

    def test_reference_rows_present(self, small_sweep):
        ref = small_sweep.references["pareto"]["montage"]
        assert ref.gain_pct == 0.0 and ref.loss_pct == 0.0

    def test_get_and_rows(self, small_sweep):
        m = small_sweep.get("pareto", "seq", "StartParExceed-s")
        assert m.label == "StartParExceed-s"
        assert len(small_sweep.rows()) == 2 * 2 * 3

    def test_get_unknown(self, small_sweep):
        with pytest.raises(ExperimentError):
            small_sweep.get("pareto", "seq", "Turbo")

    def test_reproducible(self, platform):
        kwargs = dict(
            platform=platform,
            workflows={"seq": sequential(5)},
            scenarios=[scenario("pareto", platform)],
            strategies=[strategy("OneVMperTask-s")],
            seed=5,
        )
        a = run_sweep(**kwargs)
        b = run_sweep(**kwargs)
        assert (
            a.get("pareto", "seq", "OneVMperTask-s").makespan
            == b.get("pareto", "seq", "OneVMperTask-s").makespan
        )

    def test_same_cell_shares_draw_across_strategies(self, small_sweep):
        """Both strategies saw the same Pareto instance: the reference
        makespan implied by gain=0 is consistent."""
        one = small_sweep.get("pareto", "montage", "OneVMperTask-s")
        assert one.gain_pct == pytest.approx(0.0)
        assert one.loss_pct == pytest.approx(0.0)

    def test_empty_axis_rejected(self, platform):
        with pytest.raises(ExperimentError):
            run_sweep(platform=platform, workflows={}, seed=1)

    def test_repeated_scenario_name_rejected(self, platform):
        # two scenarios under one name used to overwrite each other
        with pytest.raises(ExperimentError, match="axis 'scenarios' repeats 'pareto'"):
            run_sweep(
                platform=platform,
                workflows={"seq": sequential(6)},
                scenarios=[scenario("pareto", platform)] * 2,
                strategies=[strategy("OneVMperTask-s")],
            )

    def test_repeated_strategy_label_rejected(self, platform):
        with pytest.raises(
            ExperimentError, match="axis 'strategies' repeats 'OneVMperTask-s'"
        ):
            run_sweep(
                platform=platform,
                workflows={"seq": sequential(6)},
                scenarios=[scenario("pareto", platform)],
                strategies=[strategy("OneVMperTask-s")] * 2,
            )
