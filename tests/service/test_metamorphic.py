"""Metamorphic regressions: the service layer must add *nothing* to a
workload that never shares anything.

* A single tenant submitting workflows so far apart that every VM of
  the previous run is already reaped behaves exactly like N independent
  solo :func:`~repro.simulator.online.run_online` runs — same per-run
  makespan, rent, and VM count.
* A zero-arrival service run is a no-op: no VMs, no rent, no events.
"""

from __future__ import annotations

import pytest

from repro.service.arrivals import WorkflowRequest
from repro.service.loop import WorkflowService, run_service
from repro.simulator.online import run_online
from repro.workflows.generators import cstem, montage

SHAPES = {"montage": montage, "cstem": cstem}


@pytest.mark.parametrize("policy", ("StartParNotExceed", "AllParExceed"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_serial_single_tenant_equals_solo_runs(platform, shape, policy):
    wf = SHAPES[shape]()
    solo = run_online(wf, platform, policy=policy)

    # arrivals spaced past the previous fleet's BTU horizon: by the time
    # the next workflow arrives every old VM is idle-expired, so each
    # submission sees an empty fleet — exactly the solo initial state
    spacing = solo.makespan + 2 * platform.btu_seconds + 100.0
    count = 3
    requests = tuple(
        WorkflowRequest(
            tenant="solo", workflow=wf, arrival=i * spacing, name=f"solo#{i}"
        )
        for i in range(count)
    )
    result = run_service(requests, platform, policy=policy, max_concurrent=1)

    assert result.completed == count
    for report in result.workflows:
        assert report.wait == 0.0
        assert report.latency == pytest.approx(solo.makespan, rel=1e-12)
    assert result.vm_count == count * solo.vm_count
    assert result.rent_cost == pytest.approx(count * solo.rent_cost, rel=1e-12)
    assert result.makespan == pytest.approx(
        (count - 1) * spacing + solo.makespan, rel=1e-12
    )


def test_zero_arrival_run_is_a_noop(platform):
    service = WorkflowService(platform, admission="fair")
    result = service.run(())

    assert result.submitted == result.admitted == result.completed == 0
    assert result.rejected == 0
    assert result.makespan == 0.0
    assert result.throughput_per_hour == 0.0
    assert result.latency_p50 == result.latency_p99 == 0.0
    assert result.vm_count == 0 and result.btus == 0
    assert result.rent_cost == 0.0
    assert result.tenants == {} and result.workflows == []
    assert len(service.fleet.vms) == 0


def test_service_refuses_a_second_run(platform):
    from repro.errors import SimulationError

    service = WorkflowService(platform)
    service.run(())
    with pytest.raises(SimulationError, match="already ran"):
        service.submit(
            (WorkflowRequest(tenant="t", workflow=montage(), arrival=0.0),)
        )
