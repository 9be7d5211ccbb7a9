"""Tests for CPA-Eager and Gain: budget respect, makespan improvement,
and the OneVMperTask starting structure."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.core.allocation.upgrade import one_vm_schedule, total_rent_cost
from repro.core.baseline import reference_schedule
from repro.errors import SchedulingError
from repro.workflows.generators import montage, sequential


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestOneVmHelpers:
    def test_one_vm_schedule_structure(self, diamond, platform):
        small = platform.itype("small")
        sched = one_vm_schedule(
            diamond, platform, {t: small for t in diamond.task_ids}
        )
        assert sched.vm_count == 4
        sched.validate()

    def test_cost_additivity(self, diamond, platform):
        """total_rent_cost equals the built schedule's rent."""
        small = platform.itype("small")
        types = {t: small for t in diamond.task_ids}
        types["B"] = platform.itype("xlarge")
        sched = one_vm_schedule(diamond, platform, types)
        assert total_rent_cost(diamond, platform, types) == pytest.approx(
            sched.rent_cost
        )

    def test_mixed_types_apply(self, diamond, platform):
        types = {t: platform.itype("small") for t in diamond.task_ids}
        types["B"] = platform.itype("large")
        sched = one_vm_schedule(diamond, platform, types)
        assert sched.vm_of("B").itype.name == "large"
        assert sched.finish("B") - sched.start("B") == pytest.approx(1200.0 / 2.1)


@pytest.mark.parametrize("scheduler_cls", [CpaEagerScheduler, GainScheduler])
class TestDynamicCommon:
    def test_budget_respected(self, scheduler_cls, platform, paper_workflow):
        ref = reference_schedule(paper_workflow, platform)
        sched = scheduler_cls(budget_factor=2.0).schedule(paper_workflow, platform)
        assert sched.total_cost <= 2.0 * ref.total_cost + 1e-9

    def test_never_slower_than_reference(self, scheduler_cls, platform, paper_workflow):
        ref = reference_schedule(paper_workflow, platform)
        sched = scheduler_cls().schedule(paper_workflow, platform)
        assert sched.makespan <= ref.makespan + 1e-6

    def test_keeps_one_vm_per_task(self, scheduler_cls, platform):
        wf = montage()
        sched = scheduler_cls().schedule(wf, platform)
        assert sched.vm_count == len(wf)
        assert all(len(vm.placements) == 1 for vm in sched.vms)

    def test_budget_one_means_no_upgrades(self, scheduler_cls, platform):
        wf = montage()
        sched = scheduler_cls(budget_factor=1.0).schedule(wf, platform)
        assert all(vm.itype.name == "small" for vm in sched.vms)

    def test_invalid_budget(self, scheduler_cls, platform):
        with pytest.raises(SchedulingError):
            scheduler_cls(budget_factor=0.5)

    def test_validates(self, scheduler_cls, platform, paper_workflow):
        scheduler_cls().schedule(paper_workflow, platform).validate()


class TestCpaEager:
    def test_upgrades_critical_path_first(self, platform):
        """On a chain, every task is critical: CPA upgrades the chain."""
        wf = sequential(4)
        # xlarge costs 8x small, so budget 8x upgrades the whole chain
        sched = CpaEagerScheduler(budget_factor=8.0).schedule(wf, platform)
        assert all(vm.itype.name == "xlarge" for vm in sched.vms)

    def test_large_budget_caps_at_catalog_top(self, platform):
        wf = sequential(3)
        sched = CpaEagerScheduler(budget_factor=100.0).schedule(wf, platform)
        assert sched.makespan == pytest.approx(3 * 1000.0 / 2.7, rel=1e-3)

    def test_off_critical_tasks_stay_small(self, platform, diamond):
        """C (the short branch) is never critical, so never upgraded,
        while budget is spent on the A-B-D path first."""
        sched = CpaEagerScheduler(budget_factor=2.0).schedule(diamond, platform)
        b_speed = sched.vm_of("B").itype.speedup
        c_speed = sched.vm_of("C").itype.speedup
        assert b_speed >= c_speed

    def test_builds_one_schedule(self, platform):
        """Only the final configuration is ever built: the upgrade loop
        re-prices tasks without placing any of them."""
        from repro.obs.metrics import MetricsRegistry

        wf = montage()
        registry = MetricsRegistry()
        with registry.activate():
            sched = CpaEagerScheduler().schedule(wf, platform)
        assert any(vm.itype.name != "small" for vm in sched.vms)
        assert registry.get("builder.tasks_placed") == len(wf)


class TestGain:
    def test_monotone_budget_use(self, platform):
        """More budget never yields a slower schedule."""
        wf = montage()
        ms = [
            GainScheduler(budget_factor=f).schedule(wf, platform).makespan
            for f in (1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(ms, ms[1:]))

    def test_prefers_free_upgrades(self, platform):
        """An upgrade that costs nothing extra (same BTU count in a
        cheaper bracket) is infinite-gain and must be taken."""
        # 3600 s task: small = 1 BTU * 0.08; medium = 2250 s = 1 BTU * 0.16
        # -> not free. Use 7200 s: small 2 BTU (0.16), medium 4500 s ->
        # 2 BTU (0.32). Large: 3428 s -> 1 BTU (0.32). xlarge: 2666 -> 0.64.
        # No free lunch on this grid; instead check best-gain choice:
        wf = sequential(1).with_works({"step_000": 7200.0})
        sched = GainScheduler(budget_factor=2.0).schedule(wf, platform)
        # budget = 2 * 0.16 = 0.32: large fits exactly and is fastest per $
        assert sched.vms[0].itype.name == "large"

    def test_saturates_budget_or_catalog(self, platform):
        wf = montage()
        ref = reference_schedule(wf, platform)
        sched = GainScheduler(budget_factor=2.0).schedule(wf, platform)
        # greedy upgrading: the next upgrade would overflow the budget for
        # every task, so cost is close below the cap
        assert sched.total_cost >= 1.2 * ref.total_cost
