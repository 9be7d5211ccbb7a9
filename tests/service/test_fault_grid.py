"""A fault grid over the recovery paths of both executors.

Heavy task failures and VM crashes with long backoffs reach every
recovery phase (retry on the same VM, re-dispatch, crashes during a
backoff, VMs reaped while a retry waits), on a shared fleet and on a
private one, and in the static replay of a HEFT plan.  Every cell must
either complete or give up with :class:`~repro.errors.FaultError`;
anything else (a wedged service, a lost or doubled task, two attempts
on one VM at once, an illegal phase move, a crash charged to a task
that was not running) is an executor bug.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.allocation.heft import HeftScheduler
from repro.core.recovery import ReplanRemaining, ResubmitFresh, RetrySameVM
from repro.errors import FaultError
from repro.service.arrivals import poisson_arrivals
from repro.service.loop import WorkflowService
from repro.simulator.executor import ScheduleExecutor
from repro.simulator.faults import FaultPlan
from repro.simulator.online import run_online
from repro.workflows.generators import mapreduce, montage

POLICIES = (
    "OneVMperTask",
    "StartParNotExceed",
    "StartParExceed",
    "AllParNotExceed",
    "AllParExceed",
)
RECOVERIES = (RetrySameVM, ResubmitFresh, ReplanRemaining)


def _plan(seed):
    return FaultPlan(seed=seed, task_fail_prob=0.3, vm_crash_rate=1 / 3000)


def _assert_crashes_charge_running_tasks(events):
    """Every ``task_fail`` a crash causes names a task running on the
    VM at the crash.  Events are read in time order; the online log
    keeps the start of a voided future reservation, so the running set
    is keyed by task and VM."""
    running = set()
    for e in events:
        if e.kind == "task_start":
            running.add((e.task_id, e.vm))
        elif e.kind in ("task_end", "task_fail"):
            if e.detail in ("vm_crash", "spot_preempt"):
                assert (e.task_id, e.vm) in running, e
            running.discard((e.task_id, e.vm))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("recovery", RECOVERIES, ids=lambda cls: cls.__name__)
def test_every_cell_completes_or_gives_up(platform, recovery, seed):
    requests = poisson_arrivals(
        [montage(), mapreduce()],
        count=6,
        tenants=2,
        mean_interarrival=600.0,
        seed=seed,
    )
    for policy in POLICIES:
        service = WorkflowService(
            platform,
            policy=policy,
            fault_plan=_plan(seed),
            recovery=recovery(backoff_base=200.0),
        )
        try:
            result = service.run(requests)
        except FaultError:
            pass
        else:
            assert result.completed == result.admitted == len(requests)

        try:
            solo = run_online(
                montage(),
                platform,
                policy=policy,
                fault_plan=_plan(seed),
                recovery=recovery(backoff_base=200.0),
            )
        except FaultError:
            continue
        # every task ends exactly once
        ends = Counter(e.task_id for e in solo.events if e.kind == "task_end")
        assert set(ends) == set(montage().task_ids)
        assert set(ends.values()) == {1}
        _assert_crashes_charge_running_tasks(solo.events)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("recovery", RECOVERIES, ids=lambda cls: cls.__name__)
def test_static_replay_completes_or_gives_up(platform, recovery, seed):
    for make in (montage, mapreduce):
        wf = make()
        for policy in POLICIES:
            plan = HeftScheduler(policy).schedule(wf, platform)
            try:
                result = ScheduleExecutor(
                    plan,
                    fault_plan=_plan(seed),
                    recovery=recovery(backoff_base=200.0),
                ).run()
            except FaultError:
                continue
            # every task ends exactly once
            ends = Counter(e.task_id for e in result.events if e.kind == "task_end")
            assert set(ends) == set(wf.task_ids)
            assert set(ends.values()) == {1}
            _assert_crashes_charge_running_tasks(result.events)
            # no VM starts an attempt while another runs on it
            running = {}
            for e in result.events:
                if e.kind == "task_start":
                    assert running.get(e.vm) is None, (policy, e)
                    running[e.vm] = e.task_id
                elif e.kind in ("task_end", "task_fail"):
                    assert running.get(e.vm) == e.task_id, (policy, e)
                    running[e.vm] = None
            # every final start follows each predecessor's finish
            for tid in wf.task_ids:
                for pred in wf.predecessors(tid):
                    assert result.task_start[tid] >= result.task_finish[pred]
