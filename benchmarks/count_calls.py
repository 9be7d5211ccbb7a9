"""Count the calls of named callables in one pass of an end-to-end workload.

Usage::

    python benchmarks/count_calls.py --workload paper-sweep \\
        repro.core.schedule:Schedule._bill_plan \\
        repro.kernels.replay:replay_verify

Each target is ``module:qualname``: a module-level function, or a
method, property (its getter counts), static or class method of a class
in that module.  The workload is built from ``benchmarks/e2e/spec.json``
(its parameters and seed), every target is wrapped with a counter, and
one pass runs each operation of the workload once, as
``benchmarks/e2e/run.py`` times it.  A function
imported by name into another module is wrapped there too, so a call
through either name counts.  The script prints each target's call count
and whether the pass digest equals the one pinned in ``spec.json``.

Nothing under ``src/`` or ``benchmarks/e2e/`` changes: the wrappers
live only in this process.  Use it to show which code a workload runs,
e.g. that a path a change deletes takes no production traffic.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
SRC = E2E.parent.parent / "src"


def _resolve(target: str):
    """``(owner, attribute, raw value)`` of a ``module:qualname`` target;
    *raw* is the attribute as stored, before descriptor binding."""
    modname, _, qualname = target.partition(":")
    if not qualname:
        raise SystemExit(f"{target!r}: expected module:qualname")
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    try:
        return owner, attr, inspect.getattr_static(owner, attr)
    except AttributeError:
        raise SystemExit(f"{target!r}: {attr!r} not found") from None


def _counted(fn, counts: Counter, target: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[target] += 1
        return fn(*args, **kwargs)

    return counted


def wrap(targets, counts: Counter) -> None:
    """Replace each target with a counting wrapper (see the module
    docstring for what a target may be)."""
    for target in targets:
        owner, attr, raw = _resolve(target)
        if isinstance(raw, property):
            new = property(_counted(raw.fget, counts, target), raw.fset, raw.fdel)
        elif isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(_counted(raw.__func__, counts, target))
        elif callable(raw):
            new = _counted(raw, counts, target)
        else:
            raise SystemExit(f"{target!r} is not callable")
        counts[target] = 0
        setattr(owner, attr, new)
        if isinstance(owner, type):
            continue
        # a function imported by name: rebind it in every importer
        for module in list(sys.modules.values()):
            if module is not owner and getattr(module, attr, None) is raw:
                setattr(module, attr, new)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("targets", nargs="+", metavar="module:qualname")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(E2E)]
    import workloads
    from measure import run_pass

    spec = json.loads((E2E / "spec.json").read_text())
    entry = spec["workloads"][args.workload]
    seed = spec["seed"]
    instance = workloads.setup(args.workload, seed, entry["params"])
    counts: Counter = Counter()
    wrap(args.targets, counts)
    result = run_pass(instance, spec["calib_ref_s"])

    width = max(len(str(n)) for n in counts.values())
    for target in args.targets:
        print(f"{counts[target]:>{width}}  {target}")
    pinned = "equals" if result.digest == entry["digest"] else "differs from"
    print(
        f"{args.workload} seed {seed}: one pass, {result.tasks} tasks, "
        f"{result.failed}/{result.attempted} operations failed, "
        f"digest {pinned} spec.json"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
