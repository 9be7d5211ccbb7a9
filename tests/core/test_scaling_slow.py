"""Large-workflow scale tests (``pytest -m slow``; excluded from tier 1).

Drives the full pipeline at the 10k-task scale the indexed kernels were
built for: every provisioning family must complete quickly and — for
the shapes small enough to run the quadratic oracle — stay
trace-identical to its ``*Reference`` kernel.
"""

from __future__ import annotations

import time

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation import HeftScheduler, LevelScheduler
from repro.core.provisioning import PROVISIONING_POLICIES
from repro.workflows.generators import mapreduce, montage
from tests.oracles.provisioning_scan import REFERENCE_POLICIES

pytestmark = pytest.mark.slow

#: generous even for a loaded single-core CI box; the indexed kernels
#: take well under a second per 10k-task schedule on an idle one
BUDGET_SECONDS = 30.0


def _scheduler_for(policy_name):
    return LevelScheduler if policy_name.startswith("AllPar") else HeftScheduler


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
@pytest.mark.parametrize(
    "make_wf", [lambda: montage(3332), lambda: mapreduce(4999, 2)],
    ids=["montage-10k", "mapreduce-10k"],
)
def test_10k_pipeline_completes_in_budget(policy_name, make_wf, platform):
    wf = make_wf()
    scheduler = _scheduler_for(policy_name)(PROVISIONING_POLICIES[policy_name]())
    t0 = time.perf_counter()
    s = scheduler.schedule(wf, platform)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_SECONDS, f"{policy_name}: {elapsed:.1f}s"
    assert set(s.workflow.task_ids) == {
        p.task_id for vm in s.vms for p in vm.placements
    }


@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
def test_2k_trace_identical_to_reference(policy_name, platform):
    """Larger than the tier-1 property tests, still tractable for the
    quadratic oracle."""
    wf = montage(666)  # 2004 tasks
    cls = _scheduler_for(policy_name)
    opt = cls(PROVISIONING_POLICIES[policy_name]()).schedule(wf, platform)
    ref = cls(REFERENCE_POLICIES[policy_name]()).schedule(wf, platform)

    def fp(s):
        return (
            tuple(
                (vm.id, vm.itype.name, vm.region.name, vm.boot_seconds,
                 tuple((p.task_id, p.start, p.end) for p in vm.placements))
                for vm in s.vms
            ),
            s.makespan,
            s.total_cost,
        )

    assert fp(opt) == fp(ref)


def test_50k_montage_schedules(platform):
    wf = montage(16665)  # 50001 tasks
    t0 = time.perf_counter()
    s = HeftScheduler("StartParExceed").schedule(wf, platform)
    assert time.perf_counter() - t0 < 4 * BUDGET_SECONDS
    assert len(s.workflow.task_ids) == 50001
