"""Alternating end-to-end pairs: a git ref against the working tree.

Checks out REF (default ``HEAD``) with ``git worktree add`` in a
temporary directory, byte-compiles ``src`` and ``benchmarks`` in both
trees (``compileall`` writes the cache even under
``PYTHONDONTWRITEBYTECODE``, so neither side's ``setup_s`` includes
compiling the source), then runs N pairs of fresh-process
``benchmarks/e2e/run.py --workload W --trace 0`` — one from the ref's
checkout, one from this tree, the order alternating pair by pair so a
drift in machine speed lands on both sides — and prints, for each
end-to-end metric (``setup_s``, ``wall_s``, ``tasks_per_s``,
``peak_rss_mb``), each side's median and interquartile range (also as
a share of the median) and the tree's median change, plus each side's ``wall_s``
per run and how many pairs the working tree won on it.  The worktree is
removed afterwards, also on failure.  Besides running ``run.py``,
nothing under ``benchmarks/e2e/`` is read, and only its bytecode cache
is written.

Usage::

    make bench-pair WORKLOAD=paper-sweep REF=HEAD N=10
    python benchmarks/bench_pair.py --workload paper-sweep --ref HEAD --pairs 10

``tempfile`` honours ``TMPDIR`` for where the checkout goes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "e2e", "run.py")


#: the end-to-end metrics ``run.py`` reports, in print order
METRICS = ("setup_s", "wall_s", "tasks_per_s", "peak_rss_mb")


def _run(tree: str, workload: str) -> dict:
    """End-to-end metric values of one fresh ``run.py`` process started
    in *tree*."""
    cmd = [sys.executable, RUN, "--workload", workload, "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise SystemExit(f"{tree}: run.py reported an incorrect pass")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def _quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else values * 3


def _report(workload: str, label: str, ref: list, new: list) -> None:
    """Print the summary of paired runs (*ref*, *new*: one metric dict
    per run, pair *i* at index *i* of both)."""
    print(f"{workload}, {len(ref)} alternating pairs, ref {label}")
    for m in METRICS:
        print(f"{m}:")
        meds = []
        for side, runs in (("ref", ref), ("tree", new)):
            q1, med, q3 = _quartiles([r[m] for r in runs])
            meds.append(med)
            iqr = q3 - q1
            print(f"  {side:>4}: median {med:.3f}  IQR {iqr:.3f} ({iqr / med:.1%})")
        print(f"  median change {meds[1] / meds[0] - 1.0:+.1%}")
    for side, runs in (("ref", ref), ("tree", new)):
        print(f"wall_s {side:>4}: " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    wins = sum(b["wall_s"] < a["wall_s"] for a, b in zip(ref, new))
    print(f"tree faster on wall_s in {wins}/{len(ref)} pairs")


def _pairs(ref_tree: str, tree: str, workload: str, n: int) -> tuple:
    """*n* alternating pairs of runs, *ref_tree* first in even pairs,
    after byte-compiling both trees: ``(ref, new)`` lists of metric
    dicts."""
    for where in (ref_tree, tree):
        compile_cmd = [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"]
        subprocess.run(compile_cmd, cwd=where, check=True)
    ref, new = [], []
    for i in range(n):
        sides = [(ref_tree, ref), (tree, new)]
        for where, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(_run(where, workload))
        print(
            f"pair {i + 1}: wall_s ref {ref[-1]['wall_s']:.3f}"
            f"  tree {new[-1]['wall_s']:.3f}",
            flush=True,
        )
    return ref, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-sweep")
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    tmp = tempfile.mkdtemp(prefix="bench-pair-")
    ref_tree = os.path.join(tmp, "ref")
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", ref_tree, args.ref],
        cwd=ROOT,
        check=True,
    )
    try:
        ref, new = _pairs(ref_tree, ROOT, args.workload, args.pairs)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", ref_tree], cwd=ROOT, check=False
        )
        shutil.rmtree(tmp, ignore_errors=True)
    _report(args.workload, args.ref, ref, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
