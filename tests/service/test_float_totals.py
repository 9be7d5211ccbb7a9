"""The service's float totals keep their bits under 3.12's ``sum``.

The fleet rollup's ``rent_cost`` and the admission estimate add floats.
Both add left to right through :mod:`repro.util.totals`, so replacing
``builtins.sum`` with the compensated sum of CPython 3.12
(``tests/oracles/py312_sum.py``) changes neither a service rollup nor
the admission decisions.  This is an emulation on the host's Python:
a real 3.12 interpreter is not part of the test run.
"""

from __future__ import annotations

import builtins

from repro.experiments.service import ServiceCell, build_requests
from repro.service.fleet import FleetManager
from repro.service.loop import WorkflowService
from tests.oracles.py312_sum import sum_312


def _serve(platform):
    cell = ServiceCell(
        platform=platform,
        policy="StartParNotExceed",
        admission="budget",
        count=60,
        tenants=7,
        mean_interarrival=240.0,
        seed=2013,
        budget=10.0,
        max_concurrent=6,
    )
    service = WorkflowService(
        platform,
        policy=cell.policy,
        admission="budget",
        max_concurrent=cell.max_concurrent,
    )
    return service.run(build_requests(cell))


def test_service_totals_hold_under_compensated_sum(platform, monkeypatch):
    want = _serve(platform)
    assert want.rejected and want.completed  # the budget binds
    monkeypatch.setattr(builtins, "sum", sum_312)
    got = _serve(platform)
    assert [r.name for r in got.workflows] == [r.name for r in want.workflows]
    assert repr(got.rollup()) == repr(want.rollup())
    assert got == want


def test_fleet_rent_total_holds_under_compensated_sum(platform, monkeypatch):
    """A fleet whose per-owner bills do not add exactly."""
    itype = platform.itype("small")
    fleet = FleetManager()
    for i in range(40):
        vm = fleet.rent(itype, 0.0, 3600.0 * (1 + i % 7) - 1.0, owner=f"t{i}")
        fleet.note_use(vm)
    bills = fleet.finalize(platform.billing, platform.default_region).bills
    costs = [b.rent_cost for b in bills.values()]
    assert sum(costs) != sum_312(costs)
    want = repr(fleet.finalize(platform.billing, platform.default_region))
    monkeypatch.setattr(builtins, "sum", sum_312)
    assert repr(fleet.finalize(platform.billing, platform.default_region)) == want
