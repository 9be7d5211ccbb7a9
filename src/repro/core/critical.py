"""Realized critical paths and slack.

A schedule's makespan is determined by a concrete chain of *blocking*
events: each task on the chain started exactly when its binding
constraint released — either a same-VM predecessor freeing the machine
or a DAG predecessor's output arriving.  This module recovers that chain
(what to speed up) and each task's slack (how late it could have run
without moving the makespan).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Tuple

from repro.core.schedule import Schedule
from repro.workflows.dag import _peel

_EPS = 1e-6


@dataclass(frozen=True)
class CriticalReport:
    """The blocking chain behind a schedule's makespan."""

    #: task ids from first to last; consecutive entries block each other
    path: Tuple[str, ...]
    #: why each non-initial element waited: "vm" (machine busy) or
    #: "dependency" (input arrival); aligned with path[1:]
    reasons: Tuple[str, ...]
    #: per-task slack: how much later the task could finish without
    #: increasing the makespan (0 for critical tasks)
    slack: Dict[str, float]

    @property
    def bottleneck_fraction_vm(self) -> float:
        """Share of blocking hops caused by machine contention rather
        than DAG dependencies — high values mean the provisioning (not
        the workflow) limits the makespan."""
        if not self.reasons:
            return 0.0
        return sum(1 for r in self.reasons if r == "vm") / len(self.reasons)


def realized_critical_path(schedule: Schedule) -> CriticalReport:
    """Trace the blocking chain back from the last-finishing task."""
    wf, platform = schedule.workflow, schedule.platform
    finish = {tid: schedule.finish(tid) for tid in wf.task_ids}
    start = {tid: schedule.start(tid) for tid in wf.task_ids}

    def blocker(tid: str) -> Tuple[str, str] | None:
        """(blocking task, reason) whose release time equals start."""
        vm = schedule.vm_of(tid)
        # same-VM predecessor ending exactly at our start
        prev = None
        for p in vm.placements:
            if p.end <= start[tid] + _EPS and p.task_id != tid:
                if prev is None or p.end > prev.end:
                    prev = p
        if prev is not None and abs(prev.end - start[tid]) <= _EPS:
            return prev.task_id, "vm"
        best = None
        for pred in wf.predecessors(tid):
            src = schedule.vm_of(pred)
            dt = platform.transfer_time(
                wf.data_gb(pred, tid),
                src.itype,
                vm.itype,
                same_vm=src is vm,
                src_region=src.region,
                dst_region=vm.region,
            )
            arrival = finish[pred] + dt
            if best is None or arrival > best[1]:
                best = (pred, arrival)
        if best is not None and abs(best[1] - start[tid]) <= _EPS:
            return best[0], "dependency"
        return None  # started at release (t=0 entry or boot boundary)

    last = max(finish, key=lambda t: (finish[t], t))
    path: List[str] = [last]
    reasons: List[str] = []
    while True:
        blk = blocker(path[-1])
        if blk is None:
            break
        path.append(blk[0])
        reasons.append(blk[1])
    path.reverse()
    reasons.reverse()

    makespan = schedule.makespan
    # Backward slack needs an order respecting BOTH the DAG and the
    # same-VM execution sequences (extra precedence the DAG lacks).
    combined: Dict[str, Dict[str, None]] = {tid: {} for tid in wf.task_ids}
    for u, v, _gb in wf.edges():
        combined[u][v] = None
    vm_next: Dict[str, str] = {}
    for vm in schedule.vms:
        ordered = sorted(vm.placements, key=lambda p: p.start)
        for a, b in zip(ordered, ordered[1:]):
            combined[a.task_id][b.task_id] = None
            vm_next[a.task_id] = b.task_id

    latest: Dict[str, float] = {}
    order = list(chain.from_iterable(_peel(combined, wf.name)))
    for tid in reversed(order):
        vm = schedule.vm_of(tid)
        bound = makespan
        for succ in wf.successors(tid):
            dst = schedule.vm_of(succ)
            dt = platform.transfer_time(
                wf.data_gb(tid, succ),
                vm.itype,
                dst.itype,
                same_vm=vm is dst,
                src_region=vm.region,
                dst_region=dst.region,
            )
            bound = min(bound, latest[succ] - (finish[succ] - start[succ]) - dt)
        nxt = vm_next.get(tid)
        if nxt is not None:
            bound = min(bound, latest[nxt] - (finish[nxt] - start[nxt]))
        latest[tid] = bound
    slack = {tid: max(0.0, latest[tid] - finish[tid]) for tid in wf.task_ids}
    return CriticalReport(path=tuple(path), reasons=tuple(reasons), slack=slack)
