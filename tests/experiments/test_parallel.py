"""Parallel execution backends: resolution rules and the determinism
contract (parallel sweep/replicate results identical to serial)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import paper_strategies, paper_workflows
from repro.experiments.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.experiments.replication import replicate
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import paper_scenarios, scenario


@pytest.fixture(scope="module")
def small_grid(platform):
    """A reduced grid: 2 workflows x 2 scenarios x 5 strategies.

    Includes the stochastic Pareto scenario (the RNG-spawning case the
    determinism contract is really about) and a deterministic one.
    """
    wfs = paper_workflows()
    scenarios = [s for s in paper_scenarios(platform) if s.name in ("pareto", "best")]
    strategies = [
        s
        for s in paper_strategies()
        if s.label
        in ("StartParNotExceed-s", "AllParExceed-m", "OneVMperTask-s", "CPA-Eager", "GAIN")
    ]
    return {
        "platform": platform,
        "workflows": {k: wfs[k] for k in ("montage", "sequential")},
        "scenarios": scenarios,
        "strategies": strategies,
    }


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
class TestMakeBackend:
    def test_default_is_serial(self):
        assert isinstance(make_backend(), SerialBackend)
        assert isinstance(make_backend(None, 1), SerialBackend)
        assert isinstance(make_backend(None, 0), SerialBackend)

    def test_jobs_above_one_defaults_to_process(self):
        backend = make_backend(None, 4)
        assert isinstance(backend, ProcessBackend)
        assert backend.jobs == 4

    def test_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", 2), ThreadBackend)
        assert isinstance(make_backend("process", 2), ProcessBackend)
        assert isinstance(make_backend("THREAD", 2), ThreadBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(3)
        assert make_backend(backend, 7) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            make_backend("gpu")

    def test_invalid_jobs_raises(self):
        with pytest.raises(ExperimentError, match="jobs"):
            ThreadBackend(0)

    def test_describe(self):
        assert make_backend().describe() == "serial"
        assert make_backend("thread", 2).describe() == "thread(2)"


class TestBackendMap:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_preserves_input_order(self, backend):
        b = make_backend(backend, 4)
        assert b.map(abs, [-3, 1, -2, 0, 5]) == [3, 1, 2, 0, 5]

    def test_map_empty(self):
        assert make_backend("process", 2).map(abs, []) == []


# ----------------------------------------------------------------------
# the paper grid pickles (process-pool prerequisite)
# ----------------------------------------------------------------------
def test_paper_grid_is_picklable(platform):
    for sc in paper_scenarios(platform):
        pickle.loads(pickle.dumps(sc))
    for spec in paper_strategies():
        pickle.loads(pickle.dumps(spec))
    pickle.loads(pickle.dumps(platform))


# ----------------------------------------------------------------------
# determinism: parallel == serial, cell for cell, field for field
# ----------------------------------------------------------------------
def _metric_fields(sweep):
    """Flatten a SweepResult to {(scenario, wf, strategy): field dict}."""
    return {
        (sc, wf, label): dataclasses.asdict(m)
        for sc, wf, label, m in sweep.rows()
    }


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_sweep_identical_to_serial(small_grid, backend):
    serial = run_sweep(seed=7, **small_grid)
    parallel = run_sweep(seed=7, jobs=4, backend=backend, **small_grid)
    assert _metric_fields(parallel) == _metric_fields(serial)
    assert parallel.references == serial.references


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_replicate_identical_to_serial(small_grid, backend):
    kwargs = dict(
        platform=small_grid["platform"],
        workflows=small_grid["workflows"],
        strategies=small_grid["strategies"],
    )
    serial = replicate(range(3), **kwargs)
    parallel = replicate(range(3), jobs=3, backend=backend, **kwargs)
    assert set(parallel) == set(serial)
    for key in serial:
        assert dataclasses.asdict(parallel[key]) == dataclasses.asdict(serial[key])


def test_sweep_seed_still_controls_draws(small_grid):
    """Different seeds still give different Pareto cells when parallel."""
    a = run_sweep(seed=1, jobs=2, backend="thread", **small_grid)
    b = run_sweep(seed=2, jobs=2, backend="thread", **small_grid)
    assert _metric_fields(a) != _metric_fields(b)


def test_custom_unpicklable_strategy_works_on_threads(platform):
    """Lambda-built specs stay usable on the serial/thread backends."""
    from repro.core.allocation.heft import HeftScheduler
    from repro.experiments.config import StrategySpec

    spec = StrategySpec("custom", lambda: HeftScheduler("OneVMperTask"), "small")
    wfs = {"montage": paper_workflows()["montage"]}
    serial = run_sweep(
        platform=platform,
        workflows=wfs,
        scenarios=[scenario("pareto", platform)],
        strategies=[spec],
        seed=3,
    )
    threaded = run_sweep(
        platform=platform,
        workflows=wfs,
        scenarios=[scenario("pareto", platform)],
        strategies=[spec],
        seed=3,
        jobs=2,
        backend="thread",
    )
    assert _metric_fields(threaded) == _metric_fields(serial)


def test_backend_is_abstract():
    with pytest.raises(TypeError):
        ExecutionBackend()


# ----------------------------------------------------------------------
# shard-aware process dispatch
# ----------------------------------------------------------------------
class TestProcessDispatch:
    """The probe-based fallback: process(N) must never lose to serial on
    payloads too small (or hosts too narrow) to amortize a fork."""

    def test_small_payload_runs_in_parent(self):
        import os as _os

        backend = ProcessBackend(jobs=2)  # default threshold
        pids = backend.map(lambda _: _os.getpid(), range(8))
        assert pids == [_os.getpid()] * 8

    def test_high_threshold_forces_serial(self):
        import os as _os

        backend = _NeverForks(jobs=2)
        pids = backend.map(lambda _: _os.getpid(), range(8))
        assert pids == [_os.getpid()] * 8

    def test_zero_threshold_forces_pool(self):
        # a zero threshold bypasses both the single-core guard and the
        # probe, so the pool path is exercised even on 1-cpu CI
        backend = _AlwaysForks(jobs=2)
        assert backend.map(_square, range(20)) == [i * i for i in range(20)]

    def test_pool_path_preserves_order_and_matches_serial(self):
        items = list(range(37))
        forced = _AlwaysForks(jobs=3)
        assert forced.map(_square, items) == SerialBackend().map(_square, items)

    def test_single_item_never_probes_a_pool(self):
        backend = _AlwaysForks(jobs=4)
        assert backend.map(_square, [9]) == [81]

    def test_describe_unchanged(self):
        assert ProcessBackend(jobs=2).describe() == "process(2)"


class _NeverForks(ProcessBackend):
    min_parallel_seconds = 1e9


class _AlwaysForks(ProcessBackend):
    min_parallel_seconds = 0.0


def _square(x):
    return x * x
