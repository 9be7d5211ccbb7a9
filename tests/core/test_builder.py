"""Tests for the incremental ScheduleBuilder."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.builder import ScheduleBuilder
from repro.errors import SchedulingError


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


def _builder(wf, platform, itype="small"):
    return ScheduleBuilder(wf, platform, platform.itype(itype))


class TestPlacement:
    def test_entry_task_starts_at_zero(self, chain3, platform):
        b = _builder(chain3, platform)
        vm = b.new_vm()
        b.place("X", vm)
        assert b.task_start["X"] == 0.0
        assert b.task_finish["X"] == 1000.0

    def test_same_vm_chain_has_no_transfer(self, chain3, platform):
        b = _builder(chain3, platform)
        vm = b.new_vm()
        for t in ("X", "Y", "Z"):
            b.place(t, vm)
        assert b.task_start["Y"] == 1000.0
        assert b.task_start["Z"] == 3000.0
        assert b.makespan == 3500.0

    def test_cross_vm_chain_pays_latency(self, chain3, platform):
        b = _builder(chain3, platform)
        b.place("X", b.new_vm())
        b.place("Y", b.new_vm())
        # zero data but a control dependency still pays one latency
        assert b.task_start["Y"] == pytest.approx(1000.0 + 0.1)

    def test_cross_vm_data_transfer(self, diamond, platform):
        b = _builder(diamond, platform)
        b.place("A", b.new_vm())
        b.place("B", b.new_vm())
        # 0.5 GB over 1 Gb/s + 0.1 s latency
        assert b.task_start["B"] == pytest.approx(600.0 + 4.1)

    def test_vm_busy_serializes(self, diamond, platform):
        b = _builder(diamond, platform)
        vm = b.new_vm()
        b.place("A", vm)
        b.place("B", vm)
        b.place("C", vm)  # must wait for B on the same VM
        assert b.task_start["C"] == b.task_finish["B"]

    def test_medium_speedup_applied(self, chain3, platform):
        b = _builder(chain3, platform, "medium")
        b.place("X", b.new_vm())
        assert b.task_finish["X"] == pytest.approx(1000.0 / 1.6)

    def test_unscheduled_predecessor_rejected(self, chain3, platform):
        b = _builder(chain3, platform)
        with pytest.raises(SchedulingError, match="predecessor"):
            b.place("Y", b.new_vm())

    def test_double_placement_rejected(self, chain3, platform):
        b = _builder(chain3, platform)
        vm = b.new_vm()
        b.place("X", vm)
        with pytest.raises(SchedulingError, match="already"):
            b.place("X", vm)

    def test_foreign_vm_rejected(self, chain3, platform):
        b1 = _builder(chain3, platform)
        b2 = _builder(chain3, platform)
        alien = b2.new_vm()
        with pytest.raises(SchedulingError):
            b1.place("X", alien)


class TestQueries:
    def test_is_entry_and_levels(self, diamond, platform):
        b = _builder(diamond, platform)
        assert b.is_entry("A") and not b.is_entry("D")
        assert b.level_of("A") == 0 and b.level_of("D") == 2
        assert b.level_size("B") == 2 and b.level_size("A") == 1

    def test_busiest_vm(self, diamond, platform):
        b = _builder(diamond, platform)
        v1, v2 = b.new_vm(), b.new_vm()
        b.place("A", v1)  # 600 s
        b.place("B", v2)  # 1200 s
        assert b.busiest_vm() is v2

    def test_busiest_vm_tie_breaks_to_oldest(self, platform, fan7):
        b = _builder(fan7, platform)
        v1 = b.new_vm()
        b.place("root", v1)
        v2, v3 = b.new_vm(), b.new_vm()
        b.place("c0", v2)
        assert b.busiest_vm() is v2  # c0 (2400) > root (1800)

    def test_busiest_vm_none_when_empty(self, chain3, platform):
        assert _builder(chain3, platform).busiest_vm() is None

    def test_busiest_vm_accept_asks_only_busier_vms(self, platform, fan7):
        """The running max asks *accept* only of a VM busier than the
        best accepted so far; an equally busy later VM wins only when
        every earlier one is refused."""
        b = _builder(fan7, platform)
        v1, v2, v3 = b.new_vm(), b.new_vm(), b.new_vm()
        b.place("root", v1)  # 1800 s
        b.place("c3", v2)
        b.place("c5", v2)  # 1200 + 600 s: ties v1
        b.place("c2", v3)  # 1600 s
        asked = []

        def refuse_v1(vm):
            asked.append(vm.id)
            return vm is not v1

        assert b.busiest_vm() is v1
        assert b.busiest_vm(refuse_v1) is v2
        assert asked == [v1.id, v2.id]
        assert b.busiest_vm(lambda vm: vm is v3) is v3
        assert b.busiest_vm(lambda vm: False) is None
        assert b.hosts_level(v1, 0) and not b.hosts_level(v1, 1)
        assert b.hosts_level(v2, 1) and not b.hosts_level(v2, 0)

    def test_vm_of_largest_predecessor(self, diamond, platform):
        b = _builder(diamond, platform)
        va = b.new_vm()
        b.place("A", va)
        vb, vc = b.new_vm(), b.new_vm()
        b.place("B", vb)
        b.place("C", vc)
        assert b.vm_of_largest_predecessor("D") is vb  # B=1200 > C=900

    def test_vm_of_largest_predecessor_no_preds(self, diamond, platform):
        assert _builder(diamond, platform).vm_of_largest_predecessor("A") is None


class TestBtuFit:
    def test_empty_vm_fits_up_to_one_btu(self, platform):
        from repro.workflows.dag import Workflow
        from repro.workflows.task import Task

        wf = Workflow("w")
        wf.add_task(Task("short", 3600.0))
        wf.add_task(Task("long", 3700.0))
        wf.validate()
        b = ScheduleBuilder(wf, platform, platform.itype("small"))
        vm = b.new_vm()
        assert b.fits_in_btu("short", vm)
        assert not b.fits_in_btu("long", vm)

    def test_running_vm_paid_horizon(self, chain3, platform):
        b = _builder(chain3, platform)
        vm = b.new_vm()
        b.place("X", vm)  # uptime 1000 s, paid horizon 3600
        assert b.fits_in_btu("Y", vm)  # 1000 + 2000 = 3000 <= 3600
        b.place("Y", vm)  # uptime 3000
        assert b.fits_in_btu("Z", vm)  # 3000 + 500 = 3500 <= 3600
        b.place("Z", vm)

    def test_running_vm_overrun_detected(self, platform):
        from repro.workflows.dag import Workflow
        from repro.workflows.task import Task

        wf = Workflow("w")
        wf.add_task(Task("a", 3000.0))
        wf.add_task(Task("b", 700.0))
        wf.add_dependency("a", "b")
        wf.validate()
        b = ScheduleBuilder(wf, platform, platform.itype("small"))
        vm = b.new_vm()
        b.place("a", vm)  # uptime 3000, horizon 3600
        assert not b.fits_in_btu("b", vm)  # 3000 + 700 = 3700 > 3600

    def test_fit_accounts_for_wait_time(self, diamond, platform):
        """Waiting on a transfer burns BTU on the receiving VM."""
        b = _builder(diamond, platform)
        va = b.new_vm()
        b.place("A", va)  # 600 s on va
        vb = b.new_vm()
        b.place("B", vb)
        # C on va starts immediately after A: 600 + 900 = 1500 <= 3600
        assert b.fits_in_btu("C", va)


class TestBuild:
    def test_build_requires_all_tasks(self, chain3, platform):
        b = _builder(chain3, platform)
        b.place("X", b.new_vm())
        with pytest.raises(SchedulingError, match="unscheduled"):
            b.build()

    def test_build_drops_speculative_empty_vms(self, chain3, platform):
        b = _builder(chain3, platform)
        vm = b.new_vm()
        b.new_vm()  # never used
        for t in ("X", "Y", "Z"):
            b.place(t, vm)
        sched = b.build(algorithm="t", provisioning="p")
        assert sched.vm_count == 1
        assert sched.algorithm == "t" and sched.provisioning == "p"

    def test_build_matches_builder_makespan(self, diamond, platform):
        b = _builder(diamond, platform)
        for t in ("A", "B", "C", "D"):
            b.place(t, b.new_vm())
        sched = b.build()
        assert sched.makespan == pytest.approx(b.makespan)
        sched.validate()
