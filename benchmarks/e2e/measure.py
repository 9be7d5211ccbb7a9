"""Timing one pass, corrected for the machine's speed at the time.

On a shared host the speed of the same pure-Python loop changes by
up to 2x and stays in one state for seconds to minutes at a time.  A pass is
therefore timed one operation at a time, with a calibration probe
before the first operation and after every second or so of operations.
The raw time between two probes is divided by their mean and
multiplied by ``calib_ref_s`` (pinned in ``spec.json``): the result is
the time the operations would take on a machine whose probe reads
``calib_ref_s``.  The probe is fixed pure-Python work that does not use
the program, so a faster program never makes the probe faster.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import time
from dataclasses import dataclass
from typing import List

#: sizes of one probe run: heap pushes+pops, dict updates, and tuples
#: allocated (in batches that are each kept alive until the next, so
#: the allocator walks fresh memory as memory-heavy passes do)
HEAP_OPS = 20_000
DICT_OPS = 40_000
TUPLES = 250_000
TUPLE_BATCH = 50_000
#: probe runs per calibration probe; the probe reads the fastest: a
#: disturbance shorter than the probe slows some runs, a change of the
#: machine's speed slows them all
PROBE_RUNS = 4
#: a probe follows an operation once this much operation time has run
#: since the last probe, and always follows the last operation: short
#: operations share one calibration, so probes stay a small share of
#: the pass
PROBE_EVERY_S = 1.0


def _probe_run() -> float:
    t0 = time.perf_counter()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(HEAP_OPS):
        push(heap, (i * 7919) % 10007)
    while heap:
        pop(heap)
    d: dict = {}
    for i in range(DICT_OPS):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    batch = None
    for _ in range(TUPLES // TUPLE_BATCH):
        batch = [(i, i) for i in range(TUPLE_BATCH)]
    del batch
    return time.perf_counter() - t0


def probe() -> float:
    """One calibration probe: the fastest of PROBE_RUNS probe runs.

    The collector is off while it runs: otherwise the probe's own
    allocations trigger collections whose cost depends on what the
    last operation left on the heap, not on the machine."""
    gc.disable()
    try:
        return min(_probe_run() for _ in range(PROBE_RUNS))
    finally:
        gc.enable()


@dataclass
class PassResult:
    """One timed pass of a workload."""

    #: wall time of the pass, operations only (probes excluded)
    raw_s: float
    #: the same at the reference machine speed
    calibrated_s: float
    #: every calibration probe taken around the operations, in order
    probes: List[float]
    tasks: int
    attempted: int
    failed: int
    #: SHA-256 of the operations' outputs, in pass order
    digest: str


def digest(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(instance, calib_ref_s: float, on_probe=None) -> PassResult:
    """Run every operation of *instance* once, probing between them.

    *on_probe* (the ledger) is called as ``on_probe(scale)`` after each
    probe with the factor that calibrates the operations since the last
    one, so per-layer times are calibrated as the pass is.  An
    operation that raises fails all its attempts; the pass goes on.
    """
    # the previous pass's leftover garbage is not this pass's cost
    gc.collect()
    probes = [probe()]
    outputs = []
    raw = calibrated = pending = 0.0
    tasks = attempted = failed = 0
    last = len(instance.ops) - 1
    for i, (label, op, attempts) in enumerate(instance.ops):
        t0 = time.perf_counter()
        try:
            res = op()
        except Exception as exc:  # a failed operation is a measured outcome
            pending += time.perf_counter() - t0
            outputs.append([label, "error", type(exc).__name__, str(exc)])
            attempted += attempts
            failed += attempts
        else:
            pending += time.perf_counter() - t0
            outputs.append(res.output)
            tasks += res.tasks
            attempted += res.attempted
            failed += res.failed
        if pending >= PROBE_EVERY_S or i == last:
            probes.append(probe())
            scale = calib_ref_s * 2 / (probes[-2] + probes[-1])
            raw += pending
            calibrated += pending * scale
            pending = 0.0
            if on_probe is not None:
                on_probe(scale)
    return PassResult(
        raw_s=raw,
        calibrated_s=calibrated,
        probes=probes,
        tasks=tasks,
        attempted=attempted,
        failed=failed,
        digest=digest(outputs),
    )
