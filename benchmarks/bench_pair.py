"""Alternating end-to-end pairs: a git ref against the working tree.

Checks out REF (default ``HEAD``) with ``git worktree add`` in a
temporary directory, then runs N pairs of fresh-process
``benchmarks/e2e/run.py --workload W --trace 0`` — one from the ref's
checkout, one from this tree, the order alternating pair by pair so a
drift in machine speed lands on both sides — and prints each side's
``wall_s`` per run, its median and its spread (interquartile range over
median), plus how many pairs the working tree won.  The worktree is
removed afterwards, also on failure.  Nothing under ``benchmarks/e2e/``
is read from or written to besides running ``run.py``.

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


def _wall(tree: str, workload: str) -> float:
    """``wall_s`` of one fresh ``run.py`` process started in *tree*."""
    cmd = [sys.executable, RUN, "--workload", workload, "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise SystemExit(f"{tree}: run.py reported an incorrect pass")
    return result["metrics"]["wall_s"]["value"]


def _summary(label: str, walls: list) -> str:
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    runs = " ".join(f"{w:.3f}" for w in walls)
    return f"{label:>5}: median {med:.3f} s  spread {(q3 - q1) / med:.1%}  [{runs}]"


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
        ref, new = [], []
        for i in range(args.pairs):
            sides = [(ref_tree, ref), (ROOT, new)]
            for tree, walls in sides if i % 2 == 0 else sides[::-1]:
                walls.append(_wall(tree, args.workload))
            print(f"pair {i + 1}: ref {ref[-1]:.3f}  tree {new[-1]:.3f}", flush=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", ref_tree], cwd=ROOT, check=False
        )
        shutil.rmtree(tmp, ignore_errors=True)
    wins = sum(b < a for a, b in zip(ref, new))
    print(f"{args.workload}, {args.pairs} alternating pairs, ref {args.ref}")
    print(_summary("ref", ref))
    print(_summary("tree", new))
    change = statistics.median(new) / statistics.median(ref) - 1.0
    print(f"tree faster in {wins}/{args.pairs} pairs; median change {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
