"""The whole-array plan check against the per-VM, per-edge oracle.

``Schedule.validate`` (and the fused kernels' assembly) run one array
pass over a plan's columns.  It must accept and reject exactly the plans
the scalar loop in ``tests/oracles/plan_check.py`` does, with the same
first message: plans from every paper strategy (CPA-Eager and GAIN mix
flavors) and from ``LocalityHeftScheduler`` (several regions), each with
one start or finish (or a whole task) moved.
"""

from __future__ import annotations

import random

import pytest

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM, Placement
from repro.core.allocation.locality import LocalityHeftScheduler, pin_regions
from repro.core.schedule import _COLUMNS, Schedule
from repro.errors import InvalidScheduleError
from repro.experiments.config import paper_strategies, paper_workflows
from repro.workflows.dag import Workflow
from repro.workflows.task import Task
from tests.oracles.plan_check import validate_reference

PLATFORM = CloudPlatform.ec2()
#: seconds a start or finish moves by: inside the 1e-6 tolerance, past
#: it, past a latency, a transfer, a task
SHIFTS = (1e-7, 1e-3, 0.3, 45.0, 700.0, 4000.0)


def _verdict(check, sched):
    try:
        check(sched)
    except InvalidScheduleError as exc:
        return str(exc)
    return None


def _plans():
    plans = []
    for shape in paper_workflows().values():
        plans += [spec.run(shape, PLATFORM) for spec in paper_strategies()]
        # entry tasks pinned round-robin to two regions pull their
        # children along: a multi-region fleet
        entries = shape.entry_tasks()
        regions = ("us-east-virginia", "eu-dublin")
        pins = {t: regions[i % 2] for i, t in enumerate(entries)}
        plans.append(LocalityHeftScheduler().schedule(pin_regions(shape, pins), PLATFORM))
    return plans


@pytest.fixture(scope="module")
def plans():
    return _plans()


def _moved(sched: Schedule, moves: str, t: int, shift: float) -> Schedule:
    """*sched* with task *t*'s start, end or both (*moves*: ``"_start"``,
    ``"_end"`` or ``"both"``) moved by *shift*, kept at or above zero."""
    columns = [getattr(sched, name) for name in _COLUMNS]
    for column in ("_start", "_end") if moves == "both" else (moves,):
        k = _COLUMNS.index(column)
        values = list(columns[k])
        values[t] = max(0.0, values[t] + shift)
        columns[k] = values
    return Schedule._from_columns(sched.workflow, sched.platform, tuple(columns))


def test_the_plans_cover_mixed_flavors_and_regions(plans):
    assert any(len({x.name for x in p._vm_itype}) > 1 for p in plans)
    assert any(len({r.name for r in p._vm_region}) > 1 for p in plans)


@pytest.mark.parametrize("seed", range(4))
def test_check_agrees_with_the_oracle_on_moved_plans(plans, seed):
    rng = random.Random(seed)
    kinds = set()
    for sched in plans:
        assert _verdict(Schedule.validate, _moved(sched, "_start", 0, 0.0)) is None
        for _ in range(6):
            # one start or one finish; moving both keeps the duration,
            # so the edge checks get their turn
            column = rng.choice(("_start", "_end", "both"))
            t = rng.randrange(len(sched._ids))
            shift = rng.choice(SHIFTS) * rng.choice((-1.0, 1.0))
            moved = _moved(sched, column, t, shift)
            want = _verdict(validate_reference, moved)
            assert _verdict(Schedule.validate, moved) == want, (sched.label, column)
            kinds.add(want and want.split()[1 if want.startswith("dep") else 2])
    # every verdict occurs: accept, overlap, duration and dependency
    assert kinds == {None, "and", "runs", "violated:"}


def test_overlap_on_unsorted_placements(chain3):
    """Placements handed over out of start order are checked in start
    order: X and Y overlap, though Z comes first in the list."""
    vm = VM(
        id=0,
        itype=PLATFORM.itype("small"),
        region=PLATFORM.default_region,
        placements=[
            Placement("Z", 3000.0, 3500.0),
            Placement("Y", 900.0, 2900.0),
            Placement("X", 0.0, 1000.0),
        ],
    )
    sched = Schedule(workflow=chain3, platform=PLATFORM, vms=[vm])
    want = "vm0-s: 'X' and 'Y' overlap"
    assert _verdict(validate_reference, sched) == want
    with pytest.raises(InvalidScheduleError) as exc:
        sched.validate()
    assert str(exc.value) == want


def _cross_region(child_start: float) -> Schedule:
    wf = Workflow("xfer")
    wf.add_task(Task("src", 100.0))
    wf.add_task(Task("dst", 100.0))
    wf.add_dependency("src", "dst", 5.0)
    wf.validate()
    small = PLATFORM.itype("small")
    v0 = VM(id=0, itype=small, region=PLATFORM.region("us-east-virginia"))
    v0.place("src", 0.0, 100.0)
    v1 = VM(id=1, itype=small, region=PLATFORM.region("eu-dublin"))
    v1.place("dst", child_start, 100.0)
    return Schedule(workflow=wf, platform=PLATFORM, vms=[v0, v1])


def test_cross_region_edge_pays_the_inter_region_latency():
    """5 GB at 1 Gb/s is 40 s; the child meets the 0.1 s intra-region
    latency but not the 0.5 s inter-region one."""
    late = _cross_region(100.0 + 40.0 + 0.1)
    want = (
        "dependency violated: 'dst' starts at 140.100 but 'src' finishes "
        "at 100.000 + transfer 40.500"
    )
    assert _verdict(validate_reference, late) == want
    with pytest.raises(InvalidScheduleError) as exc:
        late.validate()
    assert str(exc.value) == want
    assert _cross_region(100.0 + 40.5).validate()._checked


def test_first_late_edge_follows_the_successor_insertion_order():
    """A parent finishing late makes every out-edge late; the message
    names the child added first, not the one first in task order."""
    wf = Workflow("fan")
    for tid in ("p", "a", "b", "c"):
        wf.add_task(Task(tid, 100.0))
    for child in ("c", "a", "b"):
        wf.add_dependency("p", child, 1.0)
    wf.validate()
    vms = []
    for i, tid in enumerate(("p", "a", "b", "c")):
        vm = VM(id=i, itype=PLATFORM.itype("small"), region=PLATFORM.default_region)
        vm.place(tid, 0.0 if tid == "p" else 108.1, 100.0)
        vms.append(vm)
    sched = Schedule(workflow=wf, platform=PLATFORM, vms=vms)
    assert sched.validate()._checked
    late = _moved(sched, "_end", 0, 5.0)
    want = _verdict(validate_reference, late)
    assert want.startswith("vm0-s: 'p' runs")
    assert _verdict(Schedule.validate, late) == want
    both = _moved(sched, "both", 0, 5.0)
    want = _verdict(validate_reference, both)
    assert want.startswith("dependency violated: 'c' starts")
    assert _verdict(Schedule.validate, both) == want


@pytest.mark.parametrize("overlap_first", [False, True])
def test_the_first_vm_with_a_violation_is_named(overlap_first):
    """A wrong duration on one VM and an overlap on another: the message
    names whichever VM comes first, as the per-VM loop does."""
    wf = Workflow("four")
    for tid in ("a", "b", "c", "d"):
        wf.add_task(Task(tid, 100.0))
    wf.validate()
    small = PLATFORM.itype("small")
    slow = VM(id=0, itype=small, region=PLATFORM.default_region)
    slow.place("a", 0.0, 100.0)
    slow.place("b", 100.0, 150.0)
    tight = VM(
        id=0,
        itype=small,
        region=PLATFORM.default_region,
        placements=[Placement("c", 0.0, 100.0), Placement("d", 50.0, 150.0)],
    )
    vms = [tight, slow] if overlap_first else [slow, tight]
    for i, vm in enumerate(vms):
        vm.id = i
    sched = Schedule(workflow=wf, platform=PLATFORM, vms=vms)
    want = _verdict(validate_reference, sched)
    assert ("overlap" in want) is overlap_first
    assert _verdict(Schedule.validate, sched) == want


@pytest.mark.parametrize("when", [(float("nan"), float("nan")), (0.0, float("inf"))])
def test_a_non_finite_time_is_refused(chain3, when):
    """Every comparison is false on NaN, so without its own test a task
    placed from NaN to NaN passed the overlap, duration and edge checks
    and gave the plan a NaN makespan."""
    vm = VM(
        id=0,
        itype=PLATFORM.itype("small"),
        region=PLATFORM.default_region,
        placements=[
            Placement("X", 0.0, 1000.0),
            Placement("Y", *when),
            Placement("Z", 3000.0, 3500.0),
        ],
    )
    sched = Schedule(workflow=chain3, platform=PLATFORM, vms=[vm])
    want = _verdict(validate_reference, sched)
    assert want == f"'Y' runs from {when[0]} to {when[1]}: not a finite time"
    assert _verdict(Schedule.validate, sched) == want
