"""Shared fixtures: the EC2 platform, the paper's workflows, and small
hand-built DAGs with known-by-construction schedules — plus the
:func:`assert_schedule_invariants` checker every execution-path test
can apply to a simulated result."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cloud.platform import CloudPlatform
from repro.workflows.dag import Workflow
from repro.workflows.generators import cstem, mapreduce, montage, sequential
from repro.workflows.task import Task

_TOL = 1e-6

# pytest puts ``src`` on this process's path (``pythonpath`` in
# pyproject.toml); the Python child processes some tests start (the
# examples, the cross-process hash checks) need it in their environment.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )


def assert_schedule_invariants(result, workflow=None, complete=True, tol=_TOL):
    """Assert the structural invariants of one simulated execution.

    Works on any result exposing ``task_start``/``task_finish`` dicts —
    both :class:`repro.simulator.trace.SimulationResult` (task→VM read
    from the event stream) and :class:`repro.simulator.online.
    OnlineResult` (read from ``task_vm``).  Checks:

    * every finished task started, and ``finish >= start``;
    * no VM runs two tasks at once (realized intervals on one VM are
      disjoint up to *tol*);
    * with *workflow*: every task starts no earlier than each
      predecessor's finish, and (when *complete*, the default) every
      task of the DAG completed.  Pass ``complete=False`` for
      fault-injected runs without recovery, where tasks may die with
      their VM and never rerun.
    """
    starts = dict(result.task_start)
    finishes = dict(result.task_finish)
    for tid, fin in finishes.items():
        assert tid in starts, f"task {tid!r} finished without starting"
        assert fin >= starts[tid] - tol, (
            f"task {tid!r} finished at {fin} before its start {starts[tid]}"
        )
    task_vm = getattr(result, "task_vm", None)
    if task_vm is not None:
        placement = {tid: f"vm{vid}" for tid, vid in task_vm.items()}
    else:
        placement = {
            ev.task_id: ev.vm
            for ev in result.events
            if ev.kind == "task_start" and ev.vm
        }
    by_vm = {}
    for tid, fin in finishes.items():
        vm = placement.get(tid)
        assert vm is not None, f"task {tid!r} has no VM placement"
        by_vm.setdefault(vm, []).append((starts[tid], fin, tid))
    for vm, intervals in by_vm.items():
        intervals.sort()
        for (_, f1, t1), (s2, _, t2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - tol, (
                f"{vm} runs {t2!r} (start {s2}) before {t1!r} ends ({f1})"
            )
    if workflow is not None:
        if complete:
            missing = [t for t in workflow.task_ids if t not in finishes]
            assert not missing, f"tasks never completed: {missing}"
        for tid in workflow.task_ids:
            if tid not in starts:
                continue
            for pred in workflow.predecessors(tid):
                assert pred in finishes, (
                    f"task {tid!r} ran but predecessor {pred!r} never finished"
                )
                assert starts[tid] >= finishes[pred] - tol, (
                    f"task {tid!r} starts at {starts[tid]} before "
                    f"predecessor {pred!r} finishes at {finishes[pred]}"
                )


@pytest.fixture(scope="session")
def platform() -> CloudPlatform:
    return CloudPlatform.ec2()


@pytest.fixture
def diamond() -> Workflow:
    """A -> (B, C) -> D with distinct runtimes and data volumes."""
    wf = Workflow("diamond")
    wf.add_task(Task("A", 600.0))
    wf.add_task(Task("B", 1200.0))
    wf.add_task(Task("C", 900.0))
    wf.add_task(Task("D", 300.0))
    wf.add_dependency("A", "B", 0.5)
    wf.add_dependency("A", "C", 0.25)
    wf.add_dependency("B", "D", 1.0)
    wf.add_dependency("C", "D", 0.125)
    return wf.validate()


@pytest.fixture
def chain3() -> Workflow:
    """X -> Y -> Z, zero data (pure control dependencies)."""
    wf = Workflow("chain3")
    wf.add_task(Task("X", 1000.0))
    wf.add_task(Task("Y", 2000.0))
    wf.add_task(Task("Z", 500.0))
    wf.add_dependency("X", "Y")
    wf.add_dependency("Y", "Z")
    return wf.validate()


@pytest.fixture
def fan7() -> Workflow:
    """The Fig. 1 shape: one entry task and six children."""
    wf = Workflow("fan7")
    wf.add_task(Task("root", 1800.0))
    for i, work in enumerate((2400.0, 2000.0, 1600.0, 1200.0, 900.0, 600.0)):
        wf.add_task(Task(f"c{i}", work))
        wf.add_dependency("root", f"c{i}", 0.01)
    return wf.validate()


@pytest.fixture(
    params=["montage", "cstem", "mapreduce", "sequential"],
    ids=["montage", "cstem", "mapreduce", "sequential"],
)
def paper_workflow(request) -> Workflow:
    """Parametrized over the paper's four shapes."""
    return {
        "montage": montage,
        "cstem": cstem,
        "mapreduce": mapreduce,
        "sequential": sequential,
    }[request.param]()
