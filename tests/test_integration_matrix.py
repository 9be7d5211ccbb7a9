"""The full cross product: every registered scheduling algorithm on
every paper workflow produces a valid, DES-replayable schedule with
coherent accounting.  New algorithms join this matrix automatically via
the registry."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.base import SCHEDULING_ALGORITHMS, scheduling_algorithm
from repro.simulator.executor import simulate_schedule
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel

_PLATFORM = CloudPlatform.ec2()

#: per-algorithm constructor kwargs where defaults need pinning
_PARAMS = {
    "SHEFT-Deadline": {"deadline": 50_000.0, "best_effort": True},
}


@pytest.mark.parametrize("algo_name", sorted(SCHEDULING_ALGORITHMS))
def test_algorithm_on_every_paper_workflow(algo_name, paper_workflow):
    wf = apply_model(paper_workflow, ParetoModel(), seed=31)
    algo = scheduling_algorithm(algo_name, **_PARAMS.get(algo_name, {}))
    sched = algo.schedule(wf, _PLATFORM)
    sched.validate()
    simulate_schedule(sched, check=True)
    # accounting coherence
    billing = _PLATFORM.billing
    paid = sum(vm.paid_seconds(billing) for vm in sched.vms)
    busy = sum(vm.busy_seconds for vm in sched.vms)
    assert paid >= busy - 1e-6
    assert sched.total_idle_seconds == pytest.approx(paid - busy)
    # every registered algorithm rents paid EC2 capacity
    assert sched.total_cost > 0
    assert sched.makespan > 0
    # every task assigned exactly once (Schedule enforces; re-assert)
    placed = [p.task_id for vm in sched.vms for p in vm.placements]
    assert sorted(placed) == sorted(wf.task_ids)


def test_registry_size_guard():
    """Adding an algorithm must extend this matrix — keep the count
    explicit so accidental deregistration is caught."""
    assert len(SCHEDULING_ALGORITHMS) == 11, sorted(SCHEDULING_ALGORITHMS)
