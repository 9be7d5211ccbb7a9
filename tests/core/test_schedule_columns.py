"""Column-backed schedules against the object-walking oracle.

A :class:`~repro.core.schedule.Schedule` stores its plan as columns and
computes every metric from them.  These tests draw schedules from each
producer — the builder, the fused kernels, ``run_online``, and plans
rebuilt with mixed flavors, two regions and boot times — and assert the
metrics equal :mod:`tests.oracles.schedule_metrics` bit for bit, that the
VM/Placement views equal the object form, and that the large static
path never makes an object it does not need.
"""

from __future__ import annotations

import functools
import inspect
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM
from repro.core import metrics as core_metrics
from repro.core.allocation import AllParScheduler, HeftScheduler, LevelScheduler
from repro.core.allocation.base import SCHEDULING_ALGORITHMS
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.core.provisioning.base import online_policy_names
from repro.core.schedule import Schedule
from repro.kernels.replay import replay_verify
from repro.simulator.online import online_to_schedule, run_online
from repro.workflows.generators import mapreduce, montage, random_layered
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from tests.oracles import schedule_metrics as oracle
from tests.oracles.builder_path import BuilderHeft, BuilderLevel

#: (policy, fused scheduler, its builder-path twin)
POLICIES = (
    ("AllParExceed", LevelScheduler, BuilderLevel),
    ("AllParNotExceed", LevelScheduler, BuilderLevel),
    ("StartParExceed", HeftScheduler, BuilderHeft),
    ("StartParNotExceed", HeftScheduler, BuilderHeft),
    ("OneVMperTask", HeftScheduler, BuilderHeft),
)

EC2 = CloudPlatform.ec2()
#: cold boots: the builder delays each fresh VM's first task
COLD = CloudPlatform.ec2(boot_seconds=97.0, prebooted=False)


def _metrics(schedule) -> tuple:
    return (
        schedule.makespan,
        schedule.total_cost,
        schedule.total_idle_seconds,
        schedule.total_btus,
        schedule.vm_count,
        schedule.transfer_volumes(),
    )


def _assert_matches_oracle(schedule) -> None:
    got = _metrics(schedule)
    want = oracle.all_metrics(schedule)
    # ``==`` on floats is exact: the column metrics must perform the
    # oracle's operations in the oracle's order
    assert got == want
    assert schedule.rent_cost == oracle.rent_cost(schedule)
    assert schedule.transfer_cost == oracle.transfer_cost(schedule)
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone.vms == schedule.vms
    assert _metrics(clone) == got


def _restyled(schedule, platform, boot: float) -> Schedule:
    """*schedule*'s placements on VMs of alternating flavor and region,
    each booting for *boot* seconds, rebuilt through the public
    constructor (metrics do not depend on feasibility)."""
    flavors = [platform.itype(n) for n in ("small", "large", "medium")]
    regions = [platform.region("us-east-virginia"), platform.region("eu-dublin")]
    vms = [
        VM(
            id=vm.id,
            itype=flavors[k % len(flavors)],
            region=regions[k % len(regions)],
            boot_seconds=boot,
            placements=list(vm.placements),
        )
        for k, vm in enumerate(schedule.vms)
    ]
    return Schedule(schedule.workflow, platform, vms, "restyled", "restyled")


_workflows = st.one_of(
    st.builds(lambda p: montage(p), st.integers(2, 12)),
    st.builds(lambda m, r: mapreduce(m, r), st.integers(1, 8), st.integers(1, 4)),
    st.builds(
        lambda seed: random_layered(layers=5, width_range=(1, 6), seed=seed),
        st.integers(0, 10_000),
    ),
)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    wf=_workflows,
    policy=st.sampled_from(POLICIES),
    platform=st.sampled_from([EC2, COLD]),
    boot=st.sampled_from([0.0, 45.0]),
)
def test_builder_and_fused_metrics_match_oracle(wf, policy, platform, boot):
    name, scheduler, builder = policy
    built = builder(name).schedule(wf, platform)
    fused = scheduler(name).schedule(wf, platform)
    # the fused plan's views are the builder's object form
    assert fused.vms == built.vms
    assert fused == built
    for schedule in (built, fused, _restyled(fused, platform, boot)):
        _assert_matches_oracle(schedule)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    wf=_workflows,
    scheduler=st.sampled_from([CpaEagerScheduler, GainScheduler]),
)
def test_mixed_flavor_metrics_match_oracle(wf, scheduler):
    _assert_matches_oracle(scheduler().schedule(wf, EC2))


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    wf=_workflows,
    policy=st.sampled_from(["StartParNotExceed", "OneVMperTask", "AllParExceed"]),
)
def test_online_metrics_match_oracle(wf, policy):
    result = run_online(wf, EC2, policy=policy)
    _assert_matches_oracle(online_to_schedule(result, wf, EC2))


def test_two_region_plan_pays_egress_like_the_oracle(platform):
    fused = HeftScheduler("OneVMperTask").schedule(montage(6), platform)
    restyled = _restyled(fused, platform, boot=30.0)
    assert restyled.transfer_cost > 0
    _assert_matches_oracle(restyled)


def test_relabel_shares_columns(platform):
    wf = montage(5)
    out = AllParScheduler(exceed=False).schedule(wf, platform)
    assert out.label == "AllParNotExceed+AllParNotExceed"
    assert out._checked and out._vms is None
    plain = BuilderLevel("AllParNotExceed").schedule(wf, platform)
    assert out.vms == plain.vms
    _assert_matches_oracle(out)


def _online(wf, platform, policy):
    return online_to_schedule(run_online(wf, platform, policy=policy), wf, platform)


def _producers():
    """``(workflow, platform) -> Schedule`` for every way ``src`` makes a
    plan: each registered algorithm, once per provisioning policy where
    it takes one, and ``online_to_schedule`` under each policy."""
    pinned = {"SHEFT-Deadline": {"deadline": 50_000.0, "best_effort": True}}
    out = []
    for name, factory in sorted(SCHEDULING_ALGORITHMS.items()):
        kwargs = pinned.get(name, {})
        if "provisioning" not in inspect.signature(factory).parameters:
            out.append(pytest.param(factory(**kwargs).schedule, id=name))
            continue
        for policy in online_policy_names():
            algo = factory(provisioning=policy, **kwargs)
            out.append(pytest.param(algo.schedule, id=f"{name}-{policy}"))
    for policy in online_policy_names():
        make = functools.partial(_online, policy=policy)
        out.append(pytest.param(make, id=f"online-{policy}"))
    return out


@pytest.mark.parametrize("produce", _producers())
def test_every_producer_returns_a_checked_plan(produce, platform):
    """Every figure the library reports is priced from a checked plan:
    each producer hands back a plan ``check_plan`` passed, with the view
    it checked."""
    sched = produce(montage(7), platform)
    assert sched._checked and sched._plan is not None


def test_schedule_is_frozen(platform):
    s = HeftScheduler("OneVMperTask").schedule(montage(3), platform)
    with pytest.raises(AttributeError):
        s.algorithm = "x"  # type: ignore[misc]


def test_large_static_path_makes_no_objects():
    """generate -> fused schedule -> replay_verify -> evaluate on a
    5,106-task Montage never makes the workflow's Task objects or
    adjacency dicts, nor the schedule's VM views."""
    platform = CloudPlatform.ec2()
    wf = montage(1700)
    assert len(wf) == 5106
    for name, scheduler, _ in POLICIES:
        sched = scheduler(name).schedule(wf, platform)
        assert replay_verify(sched)
        m = core_metrics.evaluate(sched)
        assert m.makespan > 0 and m.vm_count == sched.vm_count
        assert sched._vms is None, name
    state = vars(wf)
    assert not {"_tasks", "_succ", "_pred"} & state.keys()
    # the first object-level query makes them, once
    assert wf.task("mJPEG").category == "mJPEG"
    assert {"_tasks", "_succ", "_pred"} <= vars(wf).keys()


# ----------------------------------------------------------------------
# billing from the checked arrays against the oracle
# ----------------------------------------------------------------------
def _queue_sizes(schedule) -> list:
    ptr = schedule._vm_ptr
    return [b - a for a, b in zip(ptr, ptr[1:])]


@pytest.mark.parametrize("projections, longest", [(6, 9), (600, 1001)])
def test_long_queues_bill_like_the_oracle(projections, longest):
    """A VM's busy time adds its durations left to right however long
    its queue: past eight tasks (where a vectorised sum would split the
    adds) and past a thousand.  Pareto runtimes make the order of the
    adds show in the last bits."""
    wf = apply_model(montage(projections), ParetoModel(), seed=projections)
    sched = HeftScheduler("StartParExceed").schedule(wf, EC2)
    assert sched._plan is not None  # billed from the arrays it was checked on
    assert max(_queue_sizes(sched)) >= longest
    _assert_matches_oracle(sched)


def _two_region_mixed_plan(platform) -> Schedule:
    """A builder-made plan over four VMs of three flavors in two
    regions, tasks dealt round-robin in topological order."""
    from repro.core.builder import ScheduleBuilder

    wf = montage(8)
    builder = ScheduleBuilder(wf, platform, platform.itype("small"))
    us = platform.region("us-east-virginia")
    eu = platform.region("eu-dublin")
    fleet = [
        builder.new_vm(platform.itype(flavor), region)
        for flavor, region in (
            ("small", us),
            ("large", eu),
            ("medium", us),
            ("small", eu),
        )
    ]
    for k, task in enumerate(wf.topological_order()):
        builder.place(task, fleet[k % len(fleet)])
    return builder.build("round-robin", "two-region")


def test_two_region_mixed_flavor_plan_bills_like_the_oracle(platform):
    sched = _two_region_mixed_plan(platform)
    assert sched._plan is not None and sched._plan.zone is not None
    assert len(sched._plan.flavors) == 3
    assert sched.transfer_cost > 0
    _assert_matches_oracle(sched)


@pytest.mark.parametrize("policy", ["OneVMperTask", "StartParNotExceed"])
def test_cold_boot_plan_bills_like_the_oracle(policy):
    """Each VM's rent starts a boot before its first task: one boot for
    the whole fleet (a fused plan) or one per VM (a checked plan from
    VMs)."""
    sched = HeftScheduler(policy).schedule(montage(10), COLD)
    assert sched._plan.boot == 97.0
    _assert_matches_oracle(sched)
    vms = [
        VM(
            id=vm.id,
            itype=vm.itype,
            region=vm.region,
            boot_seconds=float(k % 3) * 40.0,
            placements=list(vm.placements),
        )
        for k, vm in enumerate(sched.vms)
    ]
    booted = Schedule(sched.workflow, COLD, vms, "booted", "booted").validate()
    assert list(booted._plan.boot) == [vm.boot_seconds for vm in vms]
    _assert_matches_oracle(booted)


def test_unchecked_plan_prices_from_one_view(platform, chain3, monkeypatch):
    """A plan built from VMs and never checked prices from the plan view
    it makes on first use.  The check and the certificate read that same
    view, and pricing never stands in for the check: a plan that runs a
    chain backwards prices, and only ``validate`` refuses it."""
    from repro.core import schedule as schedule_mod
    from repro.errors import InvalidScheduleError

    fused = HeftScheduler("StartParNotExceed").schedule(montage(7), platform)
    plain = Schedule(fused.workflow, platform, fused.vms, "plain", "plain")
    assert plain._plan is None and not plain._checked
    _assert_matches_oracle(plain)
    core_metrics.evaluate(plain)
    view = plain._plan
    assert view is not None and not plain._checked
    assert _metrics(plain) == _metrics(fused)

    def no_second_view(*args):
        raise AssertionError("a second plan view was made")

    checked = []

    def check_plan(workflow, plan, vm_ids):
        checked.append(plan)
        return original(workflow, plan, vm_ids)

    original = schedule_mod.check_plan
    monkeypatch.setattr(schedule_mod, "plan_view", no_second_view)
    monkeypatch.setattr(schedule_mod, "check_plan", check_plan)
    assert replay_verify(plain)
    assert plain.validate()._checked
    assert len(checked) == 1 and checked[0] is view and plain._plan is view
    monkeypatch.undo()

    vm = VM(id=0, itype=platform.itype("small"), region=platform.default_region)
    t = 0.0
    for tid in ("Z", "Y", "X"):
        dur = platform.runtime(chain3.task(tid), vm.itype)
        vm.place(tid, t, dur)
        t += dur
    backwards = Schedule(workflow=chain3, platform=platform, vms=[vm])
    _assert_matches_oracle(backwards)
    assert core_metrics.evaluate(backwards).makespan == t
    assert not backwards._checked and not replay_verify(backwards)
    with pytest.raises(InvalidScheduleError, match="dependency violated"):
        backwards.validate()
    assert not backwards._checked


def _both_paths(workflow, platform, vms) -> tuple:
    """The same VMs as an unchecked plan and as a checked one."""
    return (
        Schedule(workflow, platform, vms, "x", "x"),
        Schedule(workflow, platform, vms, "x", "x").validate(),
    )


def test_an_empty_vm_fails_alike_on_both_paths(platform):
    from repro.errors import InvalidScheduleError

    fused = HeftScheduler("StartParNotExceed").schedule(montage(4), platform)
    vms = list(fused.vms)
    vms.insert(1, VM(id=99, itype=vms[0].itype, region=vms[0].region))
    messages = set()
    for sched in _both_paths(fused.workflow, platform, vms):
        for metric in ("rent_cost", "total_idle_seconds", "total_btus"):
            with pytest.raises(InvalidScheduleError) as exc:
                getattr(sched, metric)
            messages.add(str(exc.value))
    with pytest.raises(InvalidScheduleError) as exc:
        oracle.rent_cost(_both_paths(fused.workflow, platform, vms)[0])
    assert messages == {str(exc.value)} == {"vm99-s hosted no task"}


def test_negative_uptime_fails_alike_on_both_paths(platform):
    """A VM whose placement list runs backwards has a negative uptime,
    which the billing model refuses on either path."""
    from repro.errors import BillingError

    fused = HeftScheduler("StartParExceed").schedule(montage(4), platform)
    vms = [
        VM(
            id=vm.id,
            itype=vm.itype,
            region=vm.region,
            placements=list(reversed(vm.placements)),
        )
        for vm in fused.vms
    ]
    messages = set()
    for sched in _both_paths(fused.workflow, platform, vms):
        for metric in ("rent_cost", "total_idle_seconds", "total_btus"):
            with pytest.raises(BillingError) as exc:
                getattr(sched, metric)
            messages.add(str(exc.value))
    with pytest.raises(BillingError) as exc:
        oracle.rent_cost(_both_paths(fused.workflow, platform, vms)[0])
    assert len(messages) == 1 and messages == {str(exc.value)}
    assert str(exc.value).startswith("negative uptime -")


@pytest.mark.parametrize("seed", range(4))
def test_busy_time_adds_in_placement_order(platform, seed):
    """A VM's durations are added one by one in its placement order.  In
    a queue listed in time order the running sum never outgrows the
    precision of the durations (each is rounded to its own start's), so
    the order rarely shows.  This VM lists a long task before sixteen
    short, earlier ones whose durations carry bits the running sum
    cannot hold, and its idle time keeps the busy time's last bits:
    another association of the adds rounds differently."""
    import random

    from repro.cloud.vm import Placement
    from repro.workflows.dag import Workflow
    from repro.workflows.task import Task

    rng = random.Random(seed)
    runs = [(1000.0, 50000.0 + rng.random())]
    runs += [(5.0 * i + rng.random(), 1.0 + 2.0 * rng.random()) for i in range(16)]
    runs.append((60000.0, 100.0 + rng.random()))
    wf = Workflow("bag")
    placements = []
    for i, (start, work) in enumerate(runs):
        task = wf.add_task(Task(f"t{i}", work))
        placements.append(Placement(task.id, start, start + work))
    vm = VM(
        id=0,
        itype=platform.itype("small"),
        region=platform.default_region,
        placements=placements,
    )
    sched = Schedule(wf, platform, [vm], "bag", "bag").validate()
    assert sched._plan is not None
    _assert_matches_oracle(sched)
