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

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM
from repro.core import metrics as core_metrics
from repro.core.allocation import AllParScheduler, HeftScheduler, LevelScheduler
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.core.schedule import Schedule
from repro.kernels.replay import replay_verify
from repro.simulator.online import online_to_schedule, run_online
from repro.workflows.generators import mapreduce, montage, random_layered
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
