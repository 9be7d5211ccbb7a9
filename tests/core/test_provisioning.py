"""Behavioural tests for the five provisioning policies (paper
Sect. III-A), exercised through the schedulers that drive them."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import AllParScheduler
from repro.core.provisioning.base import (
    PROVISIONING_POLICIES,
    provisioning_policy,
)
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow
from repro.workflows.generators import mapreduce, montage, sequential
from repro.workflows.task import Task


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestRegistry:
    def test_all_five_registered(self):
        assert set(PROVISIONING_POLICIES) == {
            "OneVMperTask",
            "StartParNotExceed",
            "StartParExceed",
            "AllParNotExceed",
            "AllParExceed",
        }

    def test_lookup_case_insensitive(self):
        assert provisioning_policy("onevmpertask").name == "OneVMperTask"

    def test_unknown_policy(self):
        with pytest.raises(SchedulingError):
            provisioning_policy("MagicPolicy")


class TestOneVMperTask:
    def test_one_vm_per_task(self, platform, paper_workflow):
        sched = HeftScheduler("OneVMperTask").schedule(paper_workflow, platform)
        assert sched.vm_count == len(paper_workflow)
        assert all(len(vm.placements) == 1 for vm in sched.vms)

    def test_largest_idle_time(self, platform):
        """OneVMperTask produces the largest idle time (paper III-A)."""
        wf = montage()
        idle = {}
        for pol in ("OneVMperTask", "StartParNotExceed", "StartParExceed"):
            idle[pol] = HeftScheduler(pol).schedule(wf, platform).total_idle_seconds
        assert idle["OneVMperTask"] >= idle["StartParNotExceed"]
        assert idle["OneVMperTask"] >= idle["StartParExceed"]


class TestStartPar:
    def test_entry_tasks_get_own_vms(self, platform):
        wf = montage()  # 6 entry projections
        sched = HeftScheduler("StartParExceed").schedule(wf, platform)
        entry_vms = {sched.vm_of(t).id for t in wf.entry_tasks()}
        assert len(entry_vms) == 6

    def test_exceed_never_rents_beyond_entries(self, platform, paper_workflow):
        sched = HeftScheduler("StartParExceed").schedule(paper_workflow, platform)
        assert sched.vm_count == len(paper_workflow.entry_tasks())

    def test_single_entry_serializes_everything(self, platform):
        """The paper's CSTEM remark: one entry task => one VM."""
        from repro.workflows.generators import cstem

        sched = HeftScheduler("StartParExceed").schedule(cstem(), platform)
        assert sched.vm_count == 1

    def test_notexceed_rents_on_btu_overrun(self, platform):
        """Tasks of 3000 s cannot share a small VM's BTU."""
        wf = sequential(3).with_works({f"step_{i:03d}": 3000.0 for i in range(3)})
        ne = HeftScheduler("StartParNotExceed").schedule(wf, platform)
        ex = HeftScheduler("StartParExceed").schedule(wf, platform)
        assert ne.vm_count == 3  # each task overruns the remaining BTU
        assert ex.vm_count == 1

    def test_notexceed_reuses_when_fitting(self, platform):
        wf = sequential(3).with_works({f"step_{i:03d}": 1000.0 for i in range(3)})
        sched = HeftScheduler("StartParNotExceed").schedule(wf, platform)
        assert sched.vm_count == 1  # 3000 s fit one BTU

    def test_notexceed_cheaper_or_equal_but_more_vms(self, platform):
        """StartParNotExceed allocates more VMs / larger idle than
        StartParExceed (paper III-A)."""
        wf = montage()
        ne = HeftScheduler("StartParNotExceed").schedule(wf, platform)
        ex = HeftScheduler("StartParExceed").schedule(wf, platform)
        assert ne.vm_count >= ex.vm_count
        assert ne.total_idle_seconds >= ex.total_idle_seconds
        # "slightly smaller makespan" — up to transfer-latency noise
        assert ne.makespan <= ex.makespan * 1.001

    def test_packs_onto_busiest_vm(self, platform):
        """Non-entry tasks land on the VM with the largest execution time."""
        wf = Workflow("w")
        wf.add_task(Task("e1", 2000.0))
        wf.add_task(Task("e2", 500.0))
        wf.add_task(Task("child", 300.0))
        wf.add_dependency("e1", "child")
        wf.add_dependency("e2", "child")
        wf.validate()
        sched = HeftScheduler("StartParExceed").schedule(wf, platform)
        assert sched.vm_of("child") is sched.vm_of("e1")


class TestAllPar:
    def test_parallel_tasks_on_distinct_vms(self, platform):
        wf = mapreduce(mappers=5, reducers=2)
        for exceed in (True, False):
            sched = AllParScheduler(exceed=exceed).schedule(wf, platform)
            for level in wf.levels():
                vms = [sched.vm_of(t).id for t in level]
                assert len(set(vms)) == len(vms), f"level {level} shares a VM"

    def test_sequential_task_follows_largest_predecessor(self, platform):
        wf = Workflow("w")
        wf.add_task(Task("a", 100.0))
        wf.add_task(Task("b", 2000.0))
        wf.add_task(Task("c", 500.0))
        wf.add_task(Task("join", 300.0))
        wf.add_dependency("a", "b")
        wf.add_dependency("a", "c")
        wf.add_dependency("b", "join")
        wf.add_dependency("c", "join")
        wf.validate()
        sched = AllParScheduler(exceed=True).schedule(wf, platform)
        assert sched.vm_of("join") is sched.vm_of("b")

    def test_reuses_idle_vms_across_levels(self, platform):
        """Second parallel stage reuses the first stage's VMs."""
        from repro.workflows.generators import fork_join

        wf = fork_join(width=4, stages=2)
        sched = AllParScheduler(exceed=True).schedule(wf, platform)
        assert sched.vm_count == 4  # 4 stage VMs, joins ride along

    def test_exceed_vm_count_bounded(self, platform, paper_workflow):
        """Reuse keeps the fleet near the widest level; extra rentals only
        appear when earlier VMs expired at their BTU boundary (CSTEM's
        final tasks), and can never exceed one VM per task."""
        sched = AllParScheduler(exceed=True).schedule(paper_workflow, platform)
        assert sched.vm_count < len(paper_workflow)
        if paper_workflow.name in ("mapreduce", "sequential", "montage"):
            assert sched.vm_count <= paper_workflow.max_parallelism()

    def test_notexceed_rents_on_overrun(self, platform):
        """A second long task cannot reuse a nearly-full VM."""
        wf = Workflow("w")
        wf.add_task(Task("p1", 3000.0))
        wf.add_task(Task("p2", 3000.0))
        wf.add_task(Task("q1", 3000.0))
        wf.add_task(Task("q2", 3000.0))
        wf.add_dependency("p1", "q1")
        wf.add_dependency("p1", "q2")
        wf.add_dependency("p2", "q1")
        wf.add_dependency("p2", "q2")
        wf.validate()
        ne = AllParScheduler(exceed=False).schedule(wf, platform)
        ex = AllParScheduler(exceed=True).schedule(wf, platform)
        assert ne.vm_count == 4  # q's overrun p's BTUs -> fresh VMs
        assert ex.vm_count == 2

    def test_reduces_makespan_vs_startpar_on_parallel_wf(self, platform):
        """AllParExceed exploits task parallelism (paper III-A)."""
        wf = mapreduce()
        allpar = AllParScheduler(exceed=True).schedule(wf, platform)
        startpar = HeftScheduler("StartParExceed").schedule(wf, platform)
        assert allpar.makespan < startpar.makespan
