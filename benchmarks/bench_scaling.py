"""Large-workflow scaling benchmark and perf-regression gate.

Times the full generate -> provision -> allocate -> validate pipeline at
1k / 10k / 50k / 200k tasks for each provisioning family (AllPar* under
the level scheduler, StartPar* and OneVMperTask under HEFT), plus the
pre-index ``*Reference`` kernels at 10k tasks so the speedup of the
indexed kernels is measured, not asserted.  Trace equivalence is
measured on every run, complementing the property tests: at 1k tasks
the stock schedulers are compared to the quadratic reference, and at
50k to the builder path (the scheduler subclasses of
``tests/oracles/builder_path.py``).  A full refresh also runs a
single-shot 1M-task completion smoke through one policy.

Results go to ``BENCH_scaling.json`` at the repo root (``make
bench-scaling`` refreshes it).  ``--check`` re-runs the small sizes and
fails when any cell is more than ``--tolerance`` (default 25%) slower
than the committed baseline — the ``make bench-check`` regression gate.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py
    PYTHONPATH=src python benchmarks/bench_scaling.py --check
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform as platform_module
import sys
import time
from pathlib import Path

from repro.cloud.platform import CloudPlatform
from repro.core.allocation import HeftScheduler, LevelScheduler
from repro.core.provisioning import PROVISIONING_POLICIES
from repro.workflows.generators import mapreduce, montage

REPO_ROOT = Path(__file__).resolve().parent.parent
# the quadratic reference kernels live with the tests, outside the package
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles.builder_path import BuilderHeft, BuilderLevel  # noqa: E402
from tests.oracles.provisioning_scan import REFERENCE_POLICIES  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_scaling.json"
HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: montage(p) has 3p + 6 tasks — parameters chosen so the generated DAG
#: lands on ~the advertised task count
SIZES = {
    "1k": 332,      # montage(332)   -> 1002 tasks
    "10k": 3332,    # montage(3332)  -> 10002 tasks
    "50k": 16665,   # montage(16665) -> 50001 tasks
    "200k": 66665,  # montage(66665) -> 200001 tasks
}

#: the 1M-task smoke: one policy, one shot — proves the columnar path
#: completes at paper-beyond scale, not a timing cell
SMOKE_1M_PROJECTIONS = 333331  # montage(333331) -> 999999 tasks
SMOKE_1M_POLICY = ("AllParExceed", "level")

#: minimum absolute slowdown (on top of the ratio tolerance) before the
#: regression gate fires — sub-second cells swing by ~100ms from
#: scheduler jitter alone on a shared 1-core host
ABS_SLACK_SECONDS = 0.15

#: the paper's pairing: AllPar* needs level knowledge, the rest HEFT
FAMILIES = [
    ("AllParExceed", "level"),
    ("AllParNotExceed", "level"),
    ("StartParExceed", "heft"),
    ("StartParNotExceed", "heft"),
    ("OneVMperTask", "heft"),
]

#: reference kernels are quadratic: only timed at this size
REFERENCE_SIZE = "10k"
#: trace equivalence vs the quadratic *Reference kernels at this size
EQUIVALENCE_SIZE = "1k"
#: trace equivalence of the fused kernels vs the builder path
#: at this size (the quadratic reference is infeasible here, but the
#: builder path is itself property-tested against it, so the chain
#: closes)
COLUMNAR_EQUIVALENCE_SIZE = "50k"


def _scheduler(kind: str, policy, builder: bool = False) -> object:
    """The stock scheduler of *kind*, or its builder-path subclass."""
    if kind == "level":
        cls = BuilderLevel if builder else LevelScheduler
    else:
        cls = BuilderHeft if builder else HeftScheduler
    return cls(policy)


def _fingerprint(schedule):
    return (
        tuple(
            (
                vm.id,
                vm.itype.name,
                vm.region.name,
                vm.boot_seconds,
                tuple((p.task_id, p.start, p.end) for p in vm.placements),
            )
            for vm in schedule.vms
        ),
        schedule.makespan,
        schedule.total_cost,
    )


#: best-of-N repeats per size — single-shot wall timings swing by tens
#: of percent on shared containers, which is noise the 25% gate cannot
#: absorb; the 200k cell stays single-shot to keep refreshes bounded
REPEATS = {"1k": 3, "10k": 3, "50k": 3, "200k": 1}


def _time_pipeline(projections: int, kind: str, policy_factory, platform,
                   repeats: int = 1, builder: bool = False):
    """Best-of-*repeats* wall-clock of the full pipeline; returns
    (seconds, schedule).  A fresh policy instance per repeat."""
    best, schedule = None, None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        wf = montage(projections)
        schedule = _scheduler(kind, policy_factory(), builder).schedule(
            wf, platform
        )
        seconds = time.perf_counter() - t0
        best = seconds if best is None else min(best, seconds)
    return best, schedule


def bench(sizes: dict) -> dict:
    platform = CloudPlatform.ec2()
    cells = {}
    for policy_name, kind in FAMILIES:
        row = {}
        for size_label, projections in sizes.items():
            seconds, schedule = _time_pipeline(
                projections,
                kind,
                PROVISIONING_POLICIES[policy_name],
                platform,
                repeats=REPEATS.get(size_label, 1),
            )
            entry = {
                "seconds": round(seconds, 4),
                "tasks": len(schedule.workflow.task_ids),
                "vms": schedule.vm_count,
                "makespan": round(schedule.makespan, 2),
            }
            if size_label == REFERENCE_SIZE:
                ref_seconds, _ = _time_pipeline(
                    projections, kind, REFERENCE_POLICIES[policy_name], platform
                )
                entry["reference_seconds"] = round(ref_seconds, 4)
                entry["speedup_vs_reference"] = round(ref_seconds / seconds, 2)
            if size_label == EQUIVALENCE_SIZE:
                _, opt = _time_pipeline(
                    projections, kind, PROVISIONING_POLICIES[policy_name], platform
                )
                _, ref = _time_pipeline(
                    projections, kind, REFERENCE_POLICIES[policy_name], platform
                )
                entry["identical_to_reference"] = (
                    _fingerprint(opt) == _fingerprint(ref)
                )
            if size_label == COLUMNAR_EQUIVALENCE_SIZE:
                # the timed run above went through the fused kernels;
                # one builder-path run pins the trace
                _, indexed = _time_pipeline(
                    projections, kind, PROVISIONING_POLICIES[policy_name],
                    platform, builder=True,
                )
                entry["identical_to_reference"] = (
                    _fingerprint(schedule) == _fingerprint(indexed)
                )
            row[size_label] = entry
        cells[policy_name] = row

    # one non-montage shape at 10k so fan-in DAGs are represented
    mr_row = {}
    for policy_name, kind in FAMILIES:
        t0 = time.perf_counter()
        wf = mapreduce(4999, 2)
        s = _scheduler(kind, PROVISIONING_POLICIES[policy_name]()).schedule(
            wf, platform
        )
        mr_row[policy_name] = {
            "seconds": round(time.perf_counter() - t0, 4),
            "tasks": len(s.workflow.task_ids),
            "vms": s.vm_count,
        }

    record = {
        "benchmark": "large-workflow scaling (generate+provision+allocate+validate)",
        "sizes": {k: {"projections": v} for k, v in sizes.items()},
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform_module.python_version(),
            "platform": platform_module.platform(),
        },
        "cells": cells,
        "mapreduce_10k": mr_row,
    }

    if "200k" in sizes:  # full refresh only: the 1M completion smoke
        policy_name, kind = SMOKE_1M_POLICY
        t0 = time.perf_counter()
        wf = montage(SMOKE_1M_PROJECTIONS)
        s = _scheduler(kind, PROVISIONING_POLICIES[policy_name]()).schedule(
            wf, platform
        )
        record["smoke_1m"] = {
            "policy": policy_name,
            "seconds": round(time.perf_counter() - t0, 4),
            "tasks": len(s.workflow.task_ids),
            "vms": s.vm_count,
        }
    return record


def check(baseline_path: Path, tolerance: float) -> int:
    """Regression gate: re-run the small sizes, compare to baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run without --check first")
        return 2
    baseline = json.loads(baseline_path.read_text())
    small = {k: v for k, v in SIZES.items() if k in ("1k", "10k")}
    current = bench(small)
    failures = []
    for policy_name, row in current["cells"].items():
        for size_label, entry in row.items():
            base = baseline["cells"].get(policy_name, {}).get(size_label)
            if base is None:
                continue
            if entry.get("identical_to_reference") is False:
                failures.append(f"{policy_name}/{size_label}: trace diverged")
            # sub-50ms cells are timer noise, not signal
            if base["seconds"] < 0.05:
                continue
            ratio = entry["seconds"] / base["seconds"]
            # a regression must clear the ratio AND an absolute slack:
            # the columnar kernels pushed 10k cells to ~0.15s, where
            # ±100ms of scheduler jitter on this 1-core box flips the
            # ratio alone; a real algorithmic slowdown shows a far
            # larger absolute delta
            slack = entry["seconds"] - base["seconds"]
            regressed = ratio > 1 + tolerance and slack > ABS_SLACK_SECONDS
            status = "OK" if not regressed else "REGRESSION"
            print(
                f"{policy_name:20s} {size_label:4s} "
                f"base {base['seconds']:8.3f}s  now {entry['seconds']:8.3f}s  "
                f"x{ratio:5.2f}  {status}"
            )
            if regressed:
                failures.append(
                    f"{policy_name}/{size_label}: {ratio:.2f}x baseline "
                    f"(+{slack:.3f}s; tolerance {1 + tolerance:.2f}x "
                    f"and +{ABS_SLACK_SECONDS:.2f}s)"
                )
    if failures:
        print("\nperf regression gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed slowdown fraction for --check (default 0.25)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.check:
        return check(args.out, args.tolerance)

    record = bench(SIZES)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    history_row = {
        "date": datetime.date.today().isoformat(),
        "benchmark": "scaling",
        "cells": {
            pol: {sz: e["seconds"] for sz, e in row.items()}
            for pol, row in record["cells"].items()
        },
    }
    if "smoke_1m" in record:
        history_row["smoke_1m_seconds"] = record["smoke_1m"]["seconds"]
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(history_row) + "\n")
    for policy_name, row in record["cells"].items():
        parts = [f"{sz} {e['seconds']:.2f}s" for sz, e in row.items()]
        extra = row.get(REFERENCE_SIZE, {})
        if "speedup_vs_reference" in extra:
            parts.append(f"[{extra['speedup_vs_reference']:.0f}x vs reference @10k]")
        ident = row.get(EQUIVALENCE_SIZE, {}).get("identical_to_reference")
        ident_50k = row.get(COLUMNAR_EQUIVALENCE_SIZE, {}).get(
            "identical_to_reference"
        )
        parts.append(f"identical={ident}/{ident_50k}@50k")
        print(f"{policy_name:20s} " + "  ".join(parts))
    if "smoke_1m" in record:
        sm = record["smoke_1m"]
        print(
            f"smoke_1m             {sm['policy']} {sm['tasks']} tasks "
            f"in {sm['seconds']:.2f}s ({sm['vms']} vms)"
        )
    print(f"wrote {args.out}")
    ok = all(
        row.get(EQUIVALENCE_SIZE, {}).get("identical_to_reference", True)
        and row.get(COLUMNAR_EQUIVALENCE_SIZE, {}).get(
            "identical_to_reference", True
        )
        for row in record["cells"].values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
