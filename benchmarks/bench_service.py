"""WaaS service-loop throughput benchmark: the multi-size stress run.

Times seeded multi-tenant service runs at three sizes (1k/5k/10k
workflows over 50/250/500 tenants), plus the scan-based reference
fleet (the oracle in ``tests/oracles/fleet_scan.py``) at 1k, and records
wall time, per-size speedup, simulated throughput, tail latency and
fleet utilization to ``BENCH_service.json`` at the repo root —
appending one dated row to ``BENCH_history.jsonl``, the same
trajectory log the sweep and scaling benchmarks feed.  The sizes run
in ascending order in one process with the garbage collector on; each
records the process's max RSS so far (``ru_maxrss``), and the record
holds the 10k/1k throughput ratio.  Both are recorded, not gated.

The reference path is O(tasks x fleet) — a full-roster scan per
placement — so it is only timed at the smallest size; per-size
speedups divide each indexed throughput by the reference throughput
at 1k and are therefore *lower bounds* (the scan path only gets
slower as the fleet grows).

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py

Regression gate (used by ``make bench-check``)::

    PYTHONPATH=src python benchmarks/bench_service.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform as platform_module
import resource
import sys
import time
from pathlib import Path

from repro.cloud.platform import CloudPlatform
from repro.experiments.service import ServiceCell, build_requests
from repro.service.loop import run_service

REPO_ROOT = Path(__file__).resolve().parent.parent
# the scan oracle lives with the tests, outside the package
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles.fleet_scan import (  # noqa: E402
    ScanFleetManager,
    scan_service_executors,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_service.json"
HISTORY = REPO_ROOT / "BENCH_history.jsonl"
SEED = 2013

#: (workflows, tenants) per size label; 1k is the headline cell the
#: regression gate re-times
SIZES = {"1k": (1000, 50), "5k": (5000, 250), "10k": (10000, 500)}

#: minimum absolute slowdown (on top of the ratio tolerance) before the
#: gate fails — ratio-only gates flip on 1-core scheduler jitter
#: (ROADMAP watch item); a real return of the O(tasks x fleet) scan
#: costs tens of seconds, not fractions of one
ABS_SLACK_SECONDS = 1.0


def _run_cell(args, count: int, tenants: int, repeats: int, indexed: bool = True):
    """Best-of-*repeats* wall time for one seeded service run."""
    cell = ServiceCell(
        platform=CloudPlatform.ec2(),
        policy=args.policy,
        admission=args.admission,
        count=count,
        tenants=tenants,
        mean_interarrival=args.interarrival,
        seed=args.seed,
        max_concurrent=args.max_concurrent,
    )
    requests = build_requests(cell)
    best, result = float("inf"), None
    for _ in range(repeats):
        scan = contextlib.nullcontext() if indexed else scan_service_executors()
        t0 = time.perf_counter()
        with scan:
            result = run_service(
                requests,
                cell.platform,
                policy=cell.policy,
                admission=cell.admission,
                max_concurrent=cell.max_concurrent,
                fleet=None if indexed else ScanFleetManager(),
            )
        best = min(best, time.perf_counter() - t0)
    assert result is not None and result.completed == result.admitted
    return result, best


def _max_rss_mib() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench(args) -> dict:
    sizes = {}
    results = {}
    for label, (count, tenants) in SIZES.items():  # ascending
        # best-of repeats at the gated 1k cell; single shot at the
        # larger sizes to bound total bench time
        repeats = args.repeats if label == "1k" else 1
        result, best = _run_cell(args, count, tenants, repeats)
        results[label] = result
        sizes[label] = {
            "workflows": count,
            "tenants": tenants,
            "repeats_best_of": repeats,
            "wall_seconds": round(best, 4),
            "workflows_per_wall_second": round(result.completed / best, 1),
            "max_rss_mib_after": round(_max_rss_mib(), 1),
            "simulated": {
                "completed": result.completed,
                "makespan_s": round(result.makespan, 1),
                "throughput_wf_per_h": round(result.throughput_per_hour, 3),
                "latency_p50_s": round(result.latency_p50, 1),
                "latency_p99_s": round(result.latency_p99, 1),
                "utilization": round(result.utilization, 4),
                "vms_rented": result.vm_count,
                "rent_cost": round(result.rent_cost, 2),
            },
        }

    # scan-based reference at 1k only: one shot (it is the slow path),
    # with a byte-identity assertion against the indexed run
    ref_result, ref_wall = _run_cell(args, *SIZES["1k"], repeats=1, indexed=False)
    ref_rate = ref_result.completed / ref_wall
    reference = {
        "size": "1k",
        "wall_seconds": round(ref_wall, 4),
        "workflows_per_wall_second": round(ref_rate, 1),
        "identical_to_indexed": ref_result == results["1k"],
    }
    for label, entry in sizes.items():
        entry["speedup_vs_reference_1k"] = round(
            entry["workflows_per_wall_second"] / ref_rate, 1
        )

    return {
        "benchmark": "WaaS service loop (run_service)",
        "seed": args.seed,
        "workload": {
            "mean_interarrival_s": args.interarrival,
            "policy": args.policy,
            "admission": args.admission,
            "max_concurrent": args.max_concurrent,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform_module.python_version(),
            "platform": platform_module.platform(),
        },
        "reference": reference,
        "speedup_note": (
            "speedups divide indexed throughput by the 1k reference "
            "throughput; the scan path is O(tasks x fleet), so larger "
            "sizes understate the true ratio"
        ),
        "throughput_ratio_10k_vs_1k": round(
            sizes["10k"]["workflows_per_wall_second"]
            / sizes["1k"]["workflows_per_wall_second"],
            3,
        ),
        "sizes": sizes,
    }


def _append_history(wall: float, sim: dict, workflows: int, tenants: int) -> None:
    with HISTORY.open("a") as fh:
        fh.write(
            json.dumps(
                {
                    "date": datetime.date.today().isoformat(),
                    "benchmark": "service",
                    "wall_seconds": wall,
                    "workflows": workflows,
                    "tenants": tenants,
                    "throughput_wf_per_h": sim["throughput_wf_per_h"],
                    "latency_p99_s": sim["latency_p99_s"],
                    "utilization": sim["utilization"],
                }
            )
            + "\n"
        )


def check(args) -> int:
    """Regression gate: re-time the 1k cell, compare to the committed
    baseline with a ratio tolerance AND an absolute slack."""
    if not args.out.exists():
        print(f"no baseline at {args.out}; run without --check first")
        return 2
    baseline = json.loads(args.out.read_text())
    base_entry = baseline.get("sizes", {}).get("1k")
    if base_entry is None:
        print(f"baseline at {args.out} has no sizes/1k cell; regenerate it")
        return 2
    count, tenants = SIZES["1k"]
    result, best = _run_cell(args, count, tenants, repeats=args.repeats)
    base_wall = base_entry["wall_seconds"]
    ratio = best / base_wall
    slack = best - base_wall
    regressed = ratio > 1 + args.tolerance and slack > ABS_SLACK_SECONDS
    status = "OK" if not regressed else "REGRESSION"
    print(
        f"service 1k: base {base_wall:8.3f}s  now {best:8.3f}s  "
        f"x{ratio:5.2f}  {status}"
    )
    _append_history(
        round(best, 4),
        {
            "throughput_wf_per_h": round(result.throughput_per_hour, 3),
            "latency_p99_s": round(result.latency_p99, 1),
            "utilization": round(result.utilization, 4),
        },
        count,
        tenants,
    )
    if regressed:
        print(
            f"\nperf regression gate FAILED: {ratio:.2f}x baseline "
            f"(+{slack:.3f}s; tolerance {1 + args.tolerance:.2f}x "
            f"and +{ABS_SLACK_SECONDS:.2f}s)"
        )
        return 1
    print("\nperf regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--interarrival", type=float, default=180.0)
    parser.add_argument("--policy", default="StartParNotExceed")
    parser.add_argument("--admission", default="fair")
    parser.add_argument("--max-concurrent", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-time the 1k cell and fail on regression vs --out",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed slowdown ratio before the gate fails (with --check)",
    )
    args = parser.parse_args(argv)

    if args.check:
        return check(args)

    record = bench(args)
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    head = record["sizes"]["1k"]
    _append_history(
        head["wall_seconds"], head["simulated"], head["workflows"], head["tenants"]
    )
    for label, entry in record["sizes"].items():
        sim = entry["simulated"]
        print(
            f"{label:>3s}: {sim['completed']} workflows in "
            f"{entry['wall_seconds']:.2f}s wall "
            f"({entry['workflows_per_wall_second']:.0f} wf/s, "
            f"{entry['speedup_vs_reference_1k']:.0f}x ref, max RSS "
            f"{entry['max_rss_mib_after']:.0f} MiB) | simulated "
            f"p99 {sim['latency_p99_s']:.0f}s, util {sim['utilization']:.3f}, "
            f"{sim['vms_rented']} VMs"
        )
    print(f"10k/1k throughput: {record['throughput_ratio_10k_vs_1k']:.3f}")
    ref = record["reference"]
    print(
        f"ref: 1k scan-based in {ref['wall_seconds']:.2f}s wall "
        f"(identical={ref['identical_to_indexed']})"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
