"""Object-walking schedule metrics, kept as the oracle.

These are :class:`~repro.core.schedule.Schedule`'s metric bodies from
before the schedule was stored as columns: each walks the
:class:`~repro.cloud.vm.VM` and :class:`~repro.cloud.vm.Placement`
objects and prices VM by VM through the VM's own accounting.  The
column metrics must equal them bit for bit
(``tests/core/test_schedule_columns.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def makespan(schedule) -> float:
    return max(p.end for vm in schedule.vms for p in vm.placements)


def total_btus(schedule) -> int:
    billing = schedule.platform.billing
    return sum(billing.btus(vm.uptime_seconds) for vm in schedule.vms)


def rent_cost(schedule) -> float:
    billing = schedule.platform.billing
    return sum(vm.cost(billing) for vm in schedule.vms)


def total_idle_seconds(schedule) -> float:
    billing = schedule.platform.billing
    return sum(vm.idle_seconds(billing) for vm in schedule.vms)


def transfer_volumes(schedule) -> List[Tuple[str, str, float]]:
    out = []
    for u, v, gb in sorted(schedule.workflow.edges()):
        src, dst = schedule.vm_of(u), schedule.vm_of(v)
        if src is not dst and src.region.name != dst.region.name and gb > 0:
            out.append((src.region.name, dst.region.name, gb))
    return out


def transfer_cost(schedule) -> float:
    platform = schedule.platform
    billing = platform.billing
    totals: Dict[str, float] = {}
    cost = 0.0
    for src_name, dst_name, gb in transfer_volumes(schedule):
        src = platform.region(src_name)
        dst = platform.region(dst_name)
        already = totals.get(src_name, 0.0)
        cost += billing.transfer_cost(gb, src, dst, monthly_total_gb=already)
        totals[src_name] = already + gb
    return cost


def total_cost(schedule) -> float:
    return rent_cost(schedule) + transfer_cost(schedule)


def all_metrics(schedule) -> tuple:
    """``(makespan, total_cost, idle, btus, vm_count, transfer volumes)``."""
    return (
        makespan(schedule),
        total_cost(schedule),
        total_idle_seconds(schedule),
        total_btus(schedule),
        len(schedule.vms),
        transfer_volumes(schedule),
    )
