"""Per-layer time ledger for the traced pass, measured from outside.

:class:`Ledger` replaces public functions of the program, at the
attribute each caller resolves, with timing wrappers that keep a span
stack, so every boundary reports its total time, its call count and,
where other boundaries run inside it, its self time.  Nothing under
``src/`` changes, and the traced pass activates no ``MetricsRegistry``
and passes no ``Tracer``: either one would turn ``replay_verify`` off
and send verification to the DES, a different program.

Two rules keep the numbers honest:

* a function imported by name is patched in every module that
  imported it (``runner.simulate_schedule`` *and*
  ``parallel.simulate_schedule``);
* a boundary re-entered through ``super()`` (``AllParScheduler`` ->
  ``LevelScheduler.schedule``) is one span, not two.

Seconds are calibrated with the factor ``measure.run_pass`` hands to
:meth:`Ledger.calibrate` after each probe, as the end-to-end times are.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from collections import defaultdict

#: the five paper policies plus the dynamic strategies of the sweep;
#: each gets a ``core.schedule_s.<family>`` metric
FAMILIES = (
    "AllParExceed",
    "AllParNotExceed",
    "StartParExceed",
    "StartParNotExceed",
    "OneVMperTask",
    "CPA-Eager",
    "GAIN",
    "AllPar1LnS",
    "AllPar1LnSDyn",
)

#: FleetManager methods the service loop calls per event
FLEET_FNS = ("rent", "reap", "max_busy_alive", "best_idle", "note_use", "finalize")

#: boundaries with timed children: these also report ``<name>_self_s``
PARENTS = (
    "core.schedule",
    "core.reference_schedule",
    "core.compare_to_reference",
    "simulator.simulate_schedule",
    "simulator.run",
    "service.admit",
    "experiments.run_cell",
)

#: every timed boundary, named <module of the program>.<what it does>;
#: each reports ``<name>_s`` and ``<name>_calls``
BOUNDARIES = (
    "workflows.generate",
    "workflows.apply_model",
    "kernels.upward_rank",
    "kernels.replay_verify",
    "core.schedule",
    "core.evaluate",
    "core.reference_schedule",
    "core.compare_to_reference",
    "simulator.simulate_schedule",
    "simulator.run",
    "simulator.online_start",
    "service.admit",
    "service.estimate",
    "service.select_next",
    *(f"service.fleet.{fn}" for fn in FLEET_FNS),
    "experiments.run_cell",
)

#: metrics derived besides the per-boundary and per-family ones
EXTRA = (
    "kernels.replay_fallbacks",
    "simulator.events",
    "service.arrivals_s",
    "service.fleet.reaped",
    "service.fleet.reuse_ratio",
    "experiments.sweep_overhead_s",
    "runtime.gc_s",
    "runtime.gc_gen2",
    "trace.coverage_frac",
)


def metric_names():
    """Every per-layer metric the ledger emits, in a stable order."""
    names = []
    for b in BOUNDARIES:
        names += [f"{b}_s", f"{b}_calls"]
        if b in PARENTS:
            names.append(f"{b}_self_s")
    names += [f"core.schedule_s.{f}" for f in FAMILIES]
    return names + list(EXTRA)


def _schedule_family(args):
    from repro.core.allocation import HeftScheduler, LevelScheduler

    algo = args[0]
    if isinstance(algo, (HeftScheduler, LevelScheduler)):
        return algo.provisioning.name
    return algo.name


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _targets():
    """(owner, attribute, boundary, hooks) for every patched callable."""
    import repro.core.baseline as baseline
    import repro.core.metrics as core_metrics
    import repro.experiments.config as config
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    import repro.kernels.columnar as columnar
    import repro.kernels.provision as provision
    import repro.kernels.replay as replay
    import repro.service.admission as admission
    import repro.simulator.executor as executor
    import repro.workflows.generators as generators
    from repro.core.allocation.base import SchedulingAlgorithm
    from repro.experiments.scenarios import Scenario
    from repro.service.fleet import FleetManager
    from repro.simulator.engine import Simulator
    from repro.simulator.online import OnlineCloudExecutor

    t = []
    for owner in (generators, config):
        for fn in ("montage", "cstem", "mapreduce", "sequential"):
            t.append((owner, fn, "workflows.generate", {}))
    t.append((Scenario, "apply", "workflows.apply_model", {}))
    for owner in (provision, columnar):
        t.append((owner, "upward_rank_values", "kernels.upward_rank", {}))
    t.append((replay, "replay_verify", "kernels.replay_verify",
              {"after": _count_fallback}))
    for cls in _subclasses(SchedulingAlgorithm):
        own = vars(cls).get("schedule")
        if own is not None and not getattr(own, "__isabstractmethod__", False):
            t.append((cls, "schedule", "core.schedule", {"family": _schedule_family}))
    t.append((core_metrics, "evaluate", "core.evaluate", {}))
    for owner in (baseline, runner, parallel):
        t.append((owner, "reference_schedule", "core.reference_schedule", {}))
    for owner in (core_metrics, runner, parallel):
        t.append((owner, "compare_to_reference", "core.compare_to_reference", {}))
    for owner in (executor, runner, parallel):
        t.append((owner, "simulate_schedule", "simulator.simulate_schedule", {}))
    t.append((Simulator, "run", "simulator.run",
              {"before": _events_before, "after": _count_events}))
    t.append((OnlineCloudExecutor, "start", "simulator.online_start", {}))
    t.append((admission.BudgetGuardAdmission, "admit", "service.admit", {}))
    t.append((admission, "default_estimator", "service.estimate", {}))
    t.append((admission.AdmissionPolicy, "select_next", "service.select_next", {}))
    for fn in FLEET_FNS:
        hooks = {"after": _count_reaped} if fn == "reap" else {}
        t.append((FleetManager, fn, f"service.fleet.{fn}", hooks))
    t.append((runner, "run_cell", "experiments.run_cell", {}))
    return t


def _count_fallback(ledger, args, result, token):
    if result is False:
        ledger.counts["kernels.replay_fallbacks"] += 1


def _events_before(args):
    return args[0].processed_events


def _count_events(ledger, args, result, token):
    ledger.counts["simulator.events"] += args[0].processed_events - token


def _count_reaped(ledger, args, result, token):
    ledger.counts["service.fleet.reaped"] += len(result)


class Ledger:
    """Span stack + accumulators for one traced pass.

    Use as a context manager around the pass; every patch is undone on
    exit, even when the pass raises."""

    def __init__(self) -> None:
        self._patches = []
        self._stack = []
        self._gc_t0 = 0.0
        # raw seconds since the last probe, folded into the calibrated
        # totals by calibrate()
        self._pending = defaultdict(float)
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_raw_s = 0.0

    # -- patching -------------------------------------------------------
    def __enter__(self) -> "Ledger":
        try:
            for owner, attr, name, hooks in _targets():
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, **hooks))
                self._patches.append((owner, attr, original))
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, family=None, before=None, after=None):
        ledger = self
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                ledger._close(name, dt, frame[1], args, family)
            if after is not None:
                after(ledger, args, result, token)
            return result

        return timed

    def _close(self, name, dt, child_s, args, family) -> None:
        pending = self._pending
        pending[f"{name}_s"] += dt
        if name in PARENTS:
            pending[f"{name}_self_s"] += dt - child_s
        if family is not None:
            pending[f"{name}_s.{family(args)}"] += dt
        self.calls[f"{name}_calls"] += 1
        if self._stack:
            self._stack[-1][1] += dt
        else:
            self.top_raw_s += dt

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self._pending["runtime.gc_s"] += time.perf_counter() - self._gc_t0
        if info["generation"] == 2:
            self.counts["runtime.gc_gen2"] += 1

    # -- results --------------------------------------------------------
    def calibrate(self, scale) -> None:
        """Fold the spans since the last probe in at that probe's
        calibration factor."""
        for key, raw in self._pending.items():
            self.seconds[key] += raw * scale
        self._pending.clear()

    def metrics(self, pass_result, arrivals_s: float = 0.0) -> dict:
        """Every per-layer metric of the pass, by name (0 where the
        workload never reached the boundary)."""
        out = {name: 0.0 for name in metric_names()}
        out.update(self.seconds)
        out.update(self.calls)
        out.update(self.counts)
        rents = self.calls["service.fleet.rent_calls"]
        placements = self.calls["service.fleet.note_use_calls"]
        out["service.fleet.reuse_ratio"] = 1 - rents / placements if placements else 0.0
        if self.calls["experiments.run_cell_calls"]:
            out["experiments.sweep_overhead_s"] = (
                pass_result.calibrated_s - self.seconds["experiments.run_cell_s"]
            )
        out["service.arrivals_s"] = arrivals_s
        out["trace.coverage_frac"] = self.top_raw_s / pass_result.raw_s
        return {k: out[k] for k in metric_names()}


def median_metrics(per_pass):
    """Per-metric median over several traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
