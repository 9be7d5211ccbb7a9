"""Parallel execution backends for the experiment layer.

The paper's evaluation grid (scenarios x workflows x strategies) and the
multi-seed replication layer are embarrassingly parallel: every
(scenario, workflow) cell and every replication seed is an independent
unit of work.  This module provides the :class:`ExecutionBackend`
abstraction — serial, thread pool, or process pool on top of
:mod:`concurrent.futures` — that ``run_sweep`` fans out over cells and
``replicate`` fans out over seeds.

Determinism contract
--------------------
Parallel results are *identical* to serial ones, not merely
statistically equivalent:

* each work unit gets its own child :class:`numpy.random.SeedSequence`
  spawned up front by index (``spawn_seeds``), so the draws depend only
  on the unit's position in the grid, never on scheduling order;
* ``ExecutionBackend.map`` preserves input order, so the merge is
  order-independent by construction.

The process backend requires every object shipped to a worker to be
picklable.  The paper's scenarios and strategies are (their factories
are classes or :func:`functools.partial` objects); custom specs built
from lambdas or closures only work with the ``serial`` and ``thread``
backends.
"""

from __future__ import annotations

import os
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.core.baseline import reference_schedule
from repro.core.metrics import ScheduleMetrics, compare_to_reference
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec
from repro.experiments.scenarios import Scenario
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
# module attribute kept for callers that time or patch the DES verify
# by name here; run_cell verifies through runner.verify_schedule
from repro.simulator.executor import simulate_schedule  # noqa: F401
from repro.util.suggest import unknown_name_message
from repro.workflows.dag import Workflow

T = TypeVar("T")
R = TypeVar("R")

#: label the runner attaches to the reference row of every cell
REFERENCE_LABEL = "OneVMperTask-s (reference)"


def default_jobs() -> int:
    """Worker count used when a parallel backend is built without one."""
    return os.cpu_count() or 1


class ExecutionBackend(ABC):
    """Strategy object deciding *where* independent work units run."""

    #: registry name; also what ``describe()`` and the CLI report
    name: str = "abstract"

    @abstractmethod
    def map(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> List[R]:  # pragma: no cover - interface
        """Apply *fn* to every item, returning results in input order."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run everything in the calling thread (the historical behavior)."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class _PoolBackend(ExecutionBackend):
    """Shared plumbing for the concurrent.futures-based backends."""

    _executor_cls: type

    def __init__(self, jobs: int | None = None) -> None:
        jobs = default_jobs() if jobs is None else int(jobs)
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def describe(self) -> str:
        return f"{self.name}({self.jobs})"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with self._executor_cls(max_workers=min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class ThreadBackend(_PoolBackend):
    """Thread pool: zero pickling constraints, but the GIL caps the
    speedup of the pure-python scheduling hot path."""

    name = "thread"
    _executor_cls = ThreadPoolExecutor


# ----------------------------------------------------------------------
# process-pool worker plumbing
# ----------------------------------------------------------------------
# The naive ``pool.map(fn, items)`` pickles *fn* together with every
# item and round-trips one IPC message per unit, which on small sweeps
# costs more than the work itself (the original BENCH_sweep.json showed
# the process backend *slower* than serial).  Instead the whole payload
# is shipped once per worker through the pool initializer, and the map
# dispatches plain integer indices in chunks.
_SHARED_FN: "Callable | None" = None
_SHARED_ITEMS: Sequence = ()


def _init_shared_call(fn: Callable[[T], R], items: Sequence[T]) -> None:
    """Pool initializer: stash the payload once in each worker process."""
    global _SHARED_FN, _SHARED_ITEMS
    _SHARED_FN = fn
    _SHARED_ITEMS = items


def _run_shared(index: int):
    """Worker entry point: run the shared callable on one shared item."""
    assert _SHARED_FN is not None, "worker initializer did not run"
    return _SHARED_FN(_SHARED_ITEMS[index])


class ProcessBackend(_PoolBackend):
    """Process pool: true multi-core execution; work units must pickle.

    The payload ``(fn, items)`` is pickled once per worker (via the pool
    initializer) rather than once per item, and indices are dispatched
    in coarse contiguous chunks, so per-unit IPC overhead is a few bytes
    instead of a full scenario + workflow pickle.

    Shard-aware dispatch (see EXPERIMENTS.md, "when parallelism pays"):
    the pool's fixed cost — forking workers and re-pickling the payload
    into each — is on the order of ``min_parallel_seconds``, so the map
    first runs one unit serially as a probe and falls back to plain
    serial execution whenever the extrapolated remaining work would not
    cover that cost, and always on a single-core host.  Either way the
    results (and their order) are identical to the serial backend's;
    only *where* the units run changes.
    """

    name = "process"
    _executor_cls = ProcessPoolExecutor

    #: estimated remaining serial work (seconds) below which forking a
    #: pool cannot pay for itself — roughly the measured worker spin-up
    #: + payload pickling cost on a small container
    min_parallel_seconds: float = 0.75

    def __init__(
        self, jobs: int | None = None, min_parallel_seconds: float | None = None
    ) -> None:
        super().__init__(jobs)
        if min_parallel_seconds is not None:
            if min_parallel_seconds < 0:
                raise ExperimentError(
                    f"min_parallel_seconds must be >= 0, got {min_parallel_seconds}"
                )
            self.min_parallel_seconds = float(min_parallel_seconds)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        n = len(items)
        if self.jobs == 1 or n <= 1:
            return [fn(item) for item in items]
        # ``min_parallel_seconds=0`` means "always fork" — the escape
        # hatch the pool-path tests use on single-core CI hosts
        if self.min_parallel_seconds > 0.0 and (os.cpu_count() or 1) < 2:
            # one core: workers only add pickling and context switches
            return [fn(item) for item in items]
        # Probe: run the first unit in-process and extrapolate.  Small
        # payloads finish serially — process(2) must never lose to
        # serial.  The probe's result is reused as results[0].
        start = time.perf_counter()
        out = [fn(items[0])]
        probe_seconds = time.perf_counter() - start
        rest = n - 1
        if probe_seconds * rest < self.min_parallel_seconds:
            out.extend(fn(item) for item in items[1:])
            return out
        workers = min(self.jobs, rest)
        # Coarse contiguous chunks: one chunk per worker for small maps
        # (a single dispatch round; consecutive units — e.g. the
        # replicate layer's seeds for one configuration — stay
        # co-located in one worker), ~4 per worker beyond that so a slow
        # chunk cannot starve the others.
        if rest <= workers * 8:
            chunksize = -(-rest // workers)  # ceil
        else:
            chunksize = max(1, rest // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_shared_call,
            initargs=(fn, items),
        ) as pool:
            out.extend(pool.map(_run_shared, range(1, n), chunksize=chunksize))
        return out


BACKENDS: Dict[str, type] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(
    backend: "str | ExecutionBackend | None" = None, jobs: int | None = None
) -> ExecutionBackend:
    """Resolve the (backend, jobs) pair every experiment entry point takes.

    ``backend`` may be an :class:`ExecutionBackend` instance (returned
    as-is), a registry name (``"serial"``, ``"thread"``, ``"process"``),
    or ``None``, which picks serial for ``jobs`` in (None, 0, 1) and a
    process pool otherwise — processes, not threads, because scheduling
    is CPU-bound python code.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        if jobs is None or jobs <= 1:
            return SerialBackend()
        return ProcessBackend(jobs)
    name = str(backend).lower()
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ExperimentError(
            unknown_name_message("backend", str(backend), BACKENDS)
        ) from None
    if cls is SerialBackend:
        return SerialBackend()
    return cls(jobs)


# ----------------------------------------------------------------------
# guarded execution: capture per-unit errors instead of aborting the map
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellFailure:
    """One work unit that did not produce a result."""

    label: str
    #: ``"TypeName: message"`` of the error
    error: str
    #: full traceback of the error ("" for timeouts)
    traceback: str

    def __str__(self) -> str:
        return f"{self.label}: {self.error}"


def _call_with_timeout(fn: Callable[[T], R], item: T, timeout: float) -> R:
    """Run ``fn(item)`` with a wall-clock deadline.

    Deliberately **not** ``SIGALRM``: signal handlers can only be
    installed from the main thread of the main interpreter, and guarded
    cells routinely run elsewhere — thread-backend workers, process-pool
    workers dispatching from their own threads, and pytest runs where
    the simulator test suite already owns the alarm for its per-test
    deadline (``tests/simulator/conftest.py``, which itself no-ops off
    the main thread for the same reason).  A signal-based deadline here
    would either crash with ``ValueError: signal only works in main
    thread`` or silently clobber that fixture's alarm.

    Instead a single-use helper thread runs the cell and the caller
    waits with ``Future.result(timeout=...)``, which works identically
    on every thread of every backend.  On timeout the helper thread is
    abandoned, not killed — python offers no safe thread cancellation —
    so a timed-out cell leaks one thread until its work finishes;
    acceptable for the sweep sizes this repo runs.  The timeout is
    reported as a :class:`CellFailure` by :class:`_GuardedCall`, so a
    hung cell lands in the sweep's ``failure_summary()`` instead of
    wedging the whole run.
    """
    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(fn, item)
    try:
        return future.result(timeout=timeout)
    finally:
        # never the context manager: __exit__ would join the worker and
        # wait out exactly the hang the timeout is meant to bound
        pool.shutdown(wait=False, cancel_futures=True)


class _GuardedCall:
    """Picklable per-unit wrapper: error capture + optional timeout.

    Returns ``(value, None)`` on success and ``(None, CellFailure)``
    when the unit raised or timed out, so a crashing unit never takes
    down the whole map.  There is no retry: every unit is
    seed-deterministic, so a second attempt fails the same way.
    """

    def __init__(
        self,
        fn: Callable[[T], R],
        timeout: float | None = None,
        label_fn: Callable[[T], str] | None = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ExperimentError(f"timeout must be positive, got {timeout}")
        self.fn = fn
        self.timeout = timeout
        self.label_fn = label_fn

    def __call__(self, item: T) -> "Tuple[Optional[R], Optional[CellFailure]]":
        label = self.label_fn(item) if self.label_fn is not None else repr(item)[:120]
        try:
            if self.timeout is not None:
                return _call_with_timeout(self.fn, item, self.timeout), None
            return self.fn(item), None
        except FuturesTimeoutError:
            return None, CellFailure(
                label=label,
                error=f"TimeoutError: exceeded {self.timeout}s",
                traceback="",
            )
        except Exception as exc:  # noqa: BLE001 - the whole point
            return None, CellFailure(
                label=label,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )


def map_guarded(
    backend: ExecutionBackend,
    fn: Callable[[T], R],
    items: Iterable[T],
    label_fn: Callable[[T], str] | None = None,
    timeout: float | None = None,
) -> "Tuple[List[Optional[R]], List[CellFailure]]":
    """Fan *items* out over *backend*, capturing per-unit errors.

    Returns ``(results, failures)``: ``results`` is input-ordered with
    ``None`` holes where a unit failed, ``failures`` describes the holes
    (label, error, traceback) in input order.  With the
    process backend, *fn* and *label_fn* must be picklable (module-level
    functions or partials, not lambdas).
    """
    guarded = _GuardedCall(fn, timeout=timeout, label_fn=label_fn)
    pairs = backend.map(guarded, items)
    results: List[Optional[R]] = []
    failures: List[CellFailure] = []
    for value, failure in pairs:
        results.append(value)
        if failure is not None:
            failures.append(failure)
    return results, failures


# ----------------------------------------------------------------------
# sweep fan-out: one unit per (scenario, workflow) cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One independent (scenario, workflow) cell of the evaluation grid."""

    scenario: Scenario
    workflow_name: str
    shape: Workflow
    strategies: Sequence[StrategySpec]
    platform: CloudPlatform
    seed: np.random.SeedSequence
    verify: bool = False
    #: collect per-run counters into ``CellResult.counters``
    collect: bool = False
    #: record a per-cell trace into ``CellResult.trace_events``
    trace: bool = False


@dataclass(frozen=True)
class CellResult:
    """Everything ``run_sweep`` merges back from one cell."""

    scenario: str
    workflow: str
    reference: ScheduleMetrics
    metrics: Dict[str, ScheduleMetrics] = field(default_factory=dict)
    #: per-cell counter snapshot, ``MetricsRegistry.as_dict()`` form
    #: (``SweepCell.collect``); counters hold only simulation facts, so
    #: the same seed yields the same values on every backend
    counters: Optional[Dict[str, Dict[str, float]]] = None
    #: per-cell trace events as plain dicts (``SweepCell.trace``) —
    #: picklable, re-homed by ``Tracer.adopt`` in the parent
    trace_events: Tuple[dict, ...] = ()


def cell_label(cell: SweepCell) -> str:
    """Human-readable grid coordinates, used in failure reports."""
    return f"{cell.scenario.name}/{cell.workflow_name}"


def run_cell(cell: SweepCell) -> CellResult:
    """Evaluate every strategy of one grid cell (worker entry point).

    Reconstructs the cell RNG from its :class:`~numpy.random.SeedSequence`
    exactly as the serial runner would, so results are identical no
    matter which worker (or machine) runs the cell.  With
    ``cell.collect``/``cell.trace`` the cell additionally carries back a
    counter snapshot and/or its trace events; both are plain data, so
    the same cell is observable identically from every backend.
    """
    from repro.experiments.runner import run_strategy, verify_schedule

    registry = MetricsRegistry() if cell.collect else None
    tracer = Tracer() if cell.trace else NULL_TRACER
    label = cell_label(cell)

    def evaluate() -> Tuple[ScheduleMetrics, Dict[str, ScheduleMetrics]]:
        rng = np.random.default_rng(cell.seed)
        concrete = cell.scenario.apply(cell.shape, rng)
        ref = reference_schedule(concrete, cell.platform)
        if cell.verify:
            verify_schedule(ref)
        reference = compare_to_reference(ref, ref, label=REFERENCE_LABEL)
        row: Dict[str, ScheduleMetrics] = {}
        for spec in cell.strategies:
            with tracer.span(
                f"strategy:{spec.label}", cat="sweep", tid="main", cell=label
            ):
                row[spec.label] = run_strategy(
                    spec,
                    concrete,
                    cell.platform,
                    reference=ref,
                    verify=cell.verify,
                    tracer=tracer if tracer.enabled else None,
                )
        return reference, row

    if registry is not None:
        with registry.activate():
            with tracer.span(f"cell:{label}", cat="sweep", tid="main"):
                reference, row = evaluate()
        registry.inc("sweep.cells")
    else:
        with tracer.span(f"cell:{label}", cat="sweep", tid="main"):
            reference, row = evaluate()
    return CellResult(
        scenario=cell.scenario.name,
        workflow=cell.workflow_name,
        reference=reference,
        metrics=row,
        counters=registry.as_dict() if registry is not None else None,
        trace_events=tuple(tracer.events),
    )
