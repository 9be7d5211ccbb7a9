"""Tests for multi-seed replication statistics."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, paper_workflows, strategy
from repro.experiments.replication import (
    ReplicatedMetric,
    _bootstrap_ci,
    render_replication,
    replicate,
)


@pytest.fixture(scope="module")
def results():
    platform = CloudPlatform.ec2()
    wfs = paper_workflows()
    return replicate(
        seeds=range(5),
        platform=platform,
        workflows={"montage": wfs["montage"]},
        strategies=[
            strategy("OneVMperTask-s"),
            strategy("AllParExceed-s"),
            strategy("OneVMperTask-m"),
        ],
    )


class TestReplicate:
    def test_keys_and_sample_counts(self, results):
        assert set(results) == {
            ("montage", "OneVMperTask-s"),
            ("montage", "AllParExceed-s"),
            ("montage", "OneVMperTask-m"),
        }
        assert all(len(m.gains) == 5 for m in results.values())

    def test_reference_always_at_origin(self, results):
        ref = results[("montage", "OneVMperTask-s")]
        assert ref.mean_gain == 0.0 and ref.mean_loss == 0.0
        assert ref.gain_ci() == (0.0, 0.0)

    def test_allpar_small_always_saves(self, results):
        """The paper's claim, now across 5 independent draws."""
        m = results[("montage", "AllParExceed-s")]
        assert m.always_saves
        lo, hi = m.loss_ci()
        assert hi <= 1e-6

    def test_onevm_medium_gain_is_speedup_identity(self, results):
        """Gain = 1 - 1/1.6 in every replicate: the CI collapses."""
        m = results[("montage", "OneVMperTask-m")]
        lo, hi = m.gain_ci()
        assert lo == pytest.approx(37.5, abs=0.1)
        assert hi == pytest.approx(37.5, abs=0.1)
        assert m.always_gains

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            replicate(seeds=[])

    def test_repeated_seed_rejected(self):
        # a repeated seed would count one sample twice in every CI
        with pytest.raises(ExperimentError, match="axis 'seeds' repeats 5"):
            replicate(seeds=[5, 5])

    def test_lost_cell_names_the_real_failure(self):
        exploding = StrategySpec("Exploding-s", _explode)
        with pytest.raises(ExperimentError) as info:
            replicate(
                seeds=[0],
                workflows={"sequential": paper_workflows()["sequential"]},
                strategies=[exploding],
            )
        message = str(info.value)
        assert "RuntimeError: scheduler exploded" in message
        assert "pareto/sequential" in message


def _explode():
    raise RuntimeError("scheduler exploded")


class TestBootstrap:
    def test_single_value_degenerate(self):
        assert _bootstrap_ci([3.0], 0.95, 100, 0) == (3.0, 3.0)

    def test_ci_brackets_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = _bootstrap_ci(values, 0.95, 2000, 0)
        assert lo <= 3.0 <= hi
        assert lo >= 1.0 and hi <= 5.0

    def test_wider_level_wider_interval(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0]
        lo99, hi99 = _bootstrap_ci(values, 0.99, 4000, 1)
        lo80, hi80 = _bootstrap_ci(values, 0.80, 4000, 1)
        assert hi99 - lo99 >= hi80 - lo80

    def test_invalid_level(self):
        with pytest.raises(ExperimentError):
            _bootstrap_ci([1.0, 2.0], 1.5, 100, 0)


class TestRender:
    def test_table(self, results):
        out = render_replication(results)
        assert "95% CI" in out
        assert "montage/AllParExceed-s" in out
