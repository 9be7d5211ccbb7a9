#!/usr/bin/env python
"""Instance-intensive workflow streams (the Liu et al. scenario from the
paper's related work): many MapReduce instances arriving over time onto
one shared elastic fleet, scheduled online by the service loop (one
tenant, first-come first-served).

Shows the throughput economics the single-instance evaluation cannot:
as arrivals densify, instances reuse VMs still alive inside their BTU
horizons and the cost per instance drops.

Run:  python examples/instance_intensive.py
"""

from repro import CloudPlatform, mapreduce, poisson_arrivals, run_service
from repro.util.tables import format_table


def main() -> None:
    platform = CloudPlatform.ec2()
    workflow = mapreduce(mappers=4, reducers=2)
    instances = 10

    rows = []
    for label, mean_gap in (
        ("sparse (8h apart)", 28_800.0),
        ("hourly", 3_600.0),
        ("every 10 min", 600.0),
        ("burst (all at once)", 0.0),
    ):
        requests = poisson_arrivals(
            workflow, instances, tenants=1, mean_interarrival=mean_gap, seed=42
        )
        result = run_service(
            requests, platform, policy="AllParExceed", admission="fifo"
        )
        latencies = [w.latency for w in result.workflows]
        rows.append(
            (
                label,
                result.rent_cost,
                result.rent_cost / instances,
                result.vm_count,
                sum(latencies) / len(latencies),
                max(latencies),
            )
        )

    print(
        format_table(
            [
                "arrival pattern",
                "total $",
                "$/instance",
                "VMs",
                "mean response s",
                "max response s",
            ],
            rows,
            title=f"{instances}x MapReduce instances, AllParExceed, shared fleet",
        )
    )
    print(
        "\nStaggered arrivals reuse VMs still alive inside their BTU "
        "horizons, cutting the cost\nper instance; a simultaneous burst is "
        "the degenerate case — every instance finds\nevery VM busy, so "
        "reuse collapses and the fleet balloons."
    )


if __name__ == "__main__":
    main()
