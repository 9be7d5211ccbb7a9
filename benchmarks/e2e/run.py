"""End-to-end benchmark: four workloads, four end-to-end metrics plus
the failure count, and a traced per-layer ledger.

One run of one workload, the form ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload static-50k --seed 2013 \\
        --seconds 25 --trace 0

It sets up the workload, runs timed passes for ``--seconds`` and prints
every metric with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Every pass is checked against the others and, for the default seed,
against the digest pinned in ``spec.json``; any failure makes the exit
code non-zero.

A full set runs every workload ``passes`` times untraced, round robin,
then ``traced_passes`` times traced, one child process at a time::

    python3 benchmarks/e2e/run.py [--seed 2013] [--out FILE]

Two full sets compare metric by metric, each against its bound::

    python3 benchmarks/e2e/run.py --compare A.json B.json

The program is imported from ``src/`` next to this directory; nothing
needs installing.
"""

import time

#: set-up is timed from here, before any other import
T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: every run and child runs with these: string hashing and the native
#: libraries' thread pools must not differ from run to run
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: end-to-end metrics that are timings: compare leaves out a NOISY
#: run's, and a row with fewer clean runs on a side is unresolved
TIMINGS = ("setup_s", "wall_s", "tasks_per_s")
MIN_CLEAN_RUNS = 3
CHILD_TIMEOUT_S = 180


def load_config():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    return bench, spec


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def set_up(name, seed, params):
    """Build the workload and warm it up; returns the instance and the
    raw set-up seconds since this process started."""
    import workloads

    instance = workloads.setup(name, seed, params)
    warmup = workloads.setup(name, seed, {**params, **workloads.WARMUP[name]})
    for _, op, _ in warmup.ops:
        op()
    return instance, time.perf_counter() - T_START


def setup_samples(name, seed, ref, first_raw, count):
    """*count* calibrated set-up times: this process's own and those of
    ``count - 1`` fresh child processes, run one after another."""
    from measure import probe

    samples = [first_raw * ref / probe()]
    for _ in range(count - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure_passes(instance, seconds, trace, ref):
    """Timed passes for about *seconds*: a pass starts while at least
    half of one still fits (at least one pass; with *trace*, untraced
    and traced passes alternate, at least one each).

    Returns (untraced PassResults, [(traced PassResult, ledger metrics)])."""
    from ledger import Ledger
    from measure import run_pass

    untraced, traced = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if trace and len(traced) < len(untraced):
            with Ledger() as ledger:
                result = run_pass(instance, ref, on_probe=ledger.calibrate)
            # set-up's arrival-stream time, at the speed the pass began at
            arrivals_s = instance.arrivals_s * ref / result.probes[0]
            traced.append((result, ledger.metrics(result, arrivals_s)))
        else:
            untraced.append(run_pass(instance, ref))
        now = time.perf_counter()
        per_pass = (now - start) / (len(untraced) + len(traced))
        if untraced and (traced or not trace) and now + per_pass / 2 > deadline:
            return untraced, traced


def end_to_end(untraced, setups, units):
    wall = [p.calibrated_s for p in untraced]
    wall_s = statistics.median(wall)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "tasks_per_s": untraced[0].tasks / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(untraced, traced, units):
    from ledger import median_metrics

    values = median_metrics([m for _, m in traced])
    values["trace.overhead_frac"] = (
        statistics.median(p.calibrated_s for p, _ in traced)
        / statistics.median(p.calibrated_s for p in untraced)
        - 1
    )
    values["machine.calib_s"] = statistics.median(
        x for p in untraced + [p for p, _ in traced] for x in p.probes
    )
    values["machine.wall_raw_s"] = statistics.median(p.raw_s for p in untraced)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run_workload(args, bench, spec) -> int:
    try:
        import workloads  # noqa: F401  (imports the program)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    wspec = spec["workloads"][args.workload]
    instance, setup_raw = set_up(args.workload, args.seed, wspec["params"])
    ref = spec["calib_ref_s"]
    if args.setup_only:
        from measure import probe

        print(json.dumps({"setup_s": setup_raw * ref / probe()}))
        return 0
    setups = setup_samples(
        args.workload, args.seed, ref, setup_raw, spec["setup_samples"]
    )
    untraced, traced = measure_passes(instance, args.seconds, args.trace, ref)

    # every pass must reproduce the pinned digest (default seed, or a
    # seed-free workload) or else the first pass; a pass that does not
    # fails all its operations
    passes = untraced + [p for p, _ in traced]
    pinned = wspec["digest"] if args.seed == spec["seed"] or wspec["seed_free"] else None
    expected = pinned or passes[0].digest
    agree = all(p.digest == expected for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed if p.digest == expected else p.attempted for p in passes)
    probes = [x for p in passes for x in p.probes]
    is_noisy = spread(probes) > spec["noisy_iqr_frac"]

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = per_layer(untraced, traced, units)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = end_to_end(untraced, setups, units)
    for name, m in metrics.items():
        print(f"{args.workload:17s} {name:40s} {m['value']:14.6g} {m['unit']}")
    if is_noisy:
        print(f"NOISY: calibration probes spread {spread(probes):.0%} "
              f"(limit {spec['noisy_iqr_frac']:.0%})")
    if not agree:
        print(f"WRONG OUTPUT: pass digests {sorted({p.digest for p in passes})} "
              f"expected {pinned or 'agreement'}")
    print(json.dumps({"detail": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "wall_s": [p.calibrated_s for p in untraced],
        "setup_s": setups,
        "probes": probes,
        "noisy": is_noisy,
        "digest": passes[0].digest,
        "tasks_per_pass": passes[0].tasks,
        "ops_per_pass": passes[0].attempted,
    }}))
    correct = agree and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# full set: every workload, round robin, one child at a time
# ----------------------------------------------------------------------
def _child(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = out.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload} run failed (exit {out.returncode}):\n{out.stderr}"
        )
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_set(args, bench, spec) -> int:
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    for _ in range(spec["passes"]):
        for w in names:
            runs[w].append(_child(w, args.seed, spec["set_seconds"], 0))
    for _ in range(spec["traced_passes"]):
        for w in names:
            traced[w].append(_child(w, args.seed, spec["set_seconds"], 1))

    out = {"seed": args.seed, "workloads": {}}
    ok = True
    for w in names:
        rows = runs[w] + traced[w]
        attempted = sum(r["attempted"] for _, r in rows)
        failed = sum(r["failed"] for _, r in rows)
        ok &= failed == 0 and all(r["correct"] for _, r in rows)
        ok &= len({d["digest"] for d, _ in rows}) == 1
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "digest": rows[0][0]["digest"],
            "noisy": [d["noisy"] for d, _ in runs[w]],
            "probes": [d["probes"] for d, _ in rows],
            "metrics": {},
            "per_layer": {},
        }
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs[w]]
            entry["metrics"][m["name"]] = _summary(values, m["unit"])
        for m in bench["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in traced[w]]
            entry["per_layer"][m["name"]] = _summary(values, m["unit"])
        out["workloads"][w] = entry

    for w, entry in out["workloads"].items():
        flag = "  NOISY" if any(entry["noisy"]) else ""
        print(f"== {w}: {entry['attempted']} operations, "
              f"failed_frac {entry['failed_frac']:g}{flag}")
        for section in ("metrics", "per_layer"):
            for name, s in entry[section].items():
                print(f"  {name:40s} {s['median']:14.6g} {s['unit']:6s} "
                      f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("all outputs correct" if ok else "FAILED: wrong outputs or failed operations")
    return 0 if ok else 1


def _summary(values, unit):
    q1, q2, q3 = quartiles(values)
    return {"unit": unit, "median": q2, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


# ----------------------------------------------------------------------
# compare two full sets
# ----------------------------------------------------------------------
def judge(a, b, bound, better):
    """better / worse / unchanged / unresolved for the runs *b* against
    the runs *a*, and B's median change in the worse direction."""
    if len(a) < MIN_CLEAN_RUNS or len(b) < MIN_CLEAN_RUNS:
        return float("nan"), "unresolved"
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / ma
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "unchanged"


def _median(values):
    return statistics.median(values) if values else float("nan")


def compare(path_a, path_b, bench) -> int:
    """One row per (metric, workload); timings use only runs that are
    not NOISY, and the medians shown are of the runs used."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"{'metric':14s} {'workload':17s} {'A':>12s} {'B':>12s} {'change':>8s}  verdict")
    verdicts = []
    for w in a:
        for m in bench["end_to_end"]:
            va = a[w]["metrics"][m["name"]]["values"]
            vb = b[w]["metrics"][m["name"]]["values"]
            if m["name"] in TIMINGS:
                va = [v for v, bad in zip(va, a[w]["noisy"]) if not bad]
                vb = [v for v, bad in zip(vb, b[w]["noisy"]) if not bad]
            change, verdict = judge(va, vb, m["bound"], m["better"])
            verdicts.append(verdict)
            print(f"{m['name']:14s} {w:17s} {_median(va):12.6g} "
                  f"{_median(vb):12.6g} {change:+8.1%}  {verdict}")
        fa, fb = a[w]["failed_frac"], b[w]["failed_frac"]
        verdict = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        verdicts.append(verdict)
        print(f"{'failed_frac':14s} {w:17s} {fa:12.6g} {fb:12.6g} "
              f"{'':>8s}  {verdict}")
    return 1 if "worse" in verdicts else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full set: write the results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bench, spec = load_config()
    except OSError as exc:
        print(f"missing benchmark configuration: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, bench)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, **PINNED_ENV})
    if args.seed is None:
        args.seed = spec["seed"]
    if args.workload is None:
        return run_set(args, bench, spec)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return run_workload(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main())
