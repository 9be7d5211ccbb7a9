"""Tests for the crash-tolerant sweep backend: per-cell error capture,
per-cell timeouts, and partial results."""

import time

import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import (
    CellFailure,
    cell_label,
    make_backend,
    map_guarded,
    run_cell,
)
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import paper_scenarios
from repro.experiments.config import paper_strategies, paper_workflows


def _boom(x):
    if x == "bad":
        raise ValueError("injected failure")
    return x.upper()


def _slow(x):
    if x == "hang":
        time.sleep(10.0)
    return x


class TestMapGuarded:
    def test_captures_errors_with_traceback(self):
        results, failures = map_guarded(
            make_backend("serial"), _boom, ["a", "bad", "c"]
        )
        assert results == ["A", None, "C"]
        assert len(failures) == 1
        f = failures[0]
        assert "ValueError: injected failure" in f.error
        assert "injected failure" in f.traceback
        assert "bad" in f.label

    def test_captures_across_process_pool(self):
        results, failures = map_guarded(
            make_backend("process", 2), _boom, ["a", "bad", "c"]
        )
        assert results == ["A", None, "C"]
        assert len(failures) == 1 and "ValueError" in failures[0].error

    def test_timeout_capture(self):
        results, failures = map_guarded(
            make_backend("serial"), _slow, ["ok", "hang"], timeout=0.5
        )
        assert results == ["ok", None]
        assert len(failures) == 1
        assert "TimeoutError" in failures[0].error

    def test_parameters_validated(self):
        with pytest.raises(ExperimentError):
            map_guarded(make_backend("serial"), _boom, [], timeout=0.0)


def _sweep_kwargs(platform=None):
    """A minimal one-scenario, one-workflow, two-strategy grid."""
    from repro.cloud.platform import CloudPlatform

    platform = platform or CloudPlatform.ec2()
    wfs = paper_workflows()
    return dict(
        platform=platform,
        workflows={"montage": wfs["montage"], "sequential": wfs["sequential"]},
        scenarios=paper_scenarios(platform)[:1],
        strategies=paper_strategies()[:2],
    )


class _ExplodingWorkflow:
    """A workflow stand-in whose cell dies inside the worker."""

    name = "exploding"

    def __getattr__(self, item):
        raise RuntimeError("cell blew up")


class TestSweepHardening:
    def test_injected_crashing_cell_yields_partial_results(self):
        kwargs = _sweep_kwargs()
        kwargs["workflows"] = dict(kwargs["workflows"])
        kwargs["workflows"]["exploding"] = _ExplodingWorkflow()
        result = run_sweep(**kwargs)
        # the healthy cells are all present...
        scenario = result.scenarios()[0]
        assert set(result.workflows(scenario)) == {"montage", "sequential"}
        # ...and the dead cell is described, not fatal
        assert not result.complete
        assert len(result.failures) == 1
        assert "exploding" in result.failures[0].label
        assert "RuntimeError" in result.failures[0].error
        assert "exploding" in result.failure_summary()

    def test_clean_sweep_is_complete(self):
        result = run_sweep(**_sweep_kwargs())
        assert result.complete
        assert result.failure_summary() == ""

    def test_cell_label(self):
        import numpy as np

        from repro.cloud.platform import CloudPlatform
        from repro.experiments.parallel import SweepCell

        platform = CloudPlatform.ec2()
        cell = SweepCell(
            scenario=paper_scenarios(platform)[0],
            workflow_name="montage",
            shape=paper_workflows()["montage"],
            strategies=(),
            platform=platform,
            seed=np.random.SeedSequence(0),
        )
        assert cell_label(cell) == "pareto/montage"
