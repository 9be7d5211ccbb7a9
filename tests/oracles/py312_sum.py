"""Builtin ``sum`` as CPython 3.12 computes it, for tests on 3.10/3.11.

From 3.12 on, ``sum`` adds floats with Neumaier compensation: the
result is the correctly rounded total far more often, and so differs in
its last bits from the plain left-to-right adds of 3.11.  Patching
``builtins.sum`` with :func:`sum_312` shows which float totals of the
program would move on 3.12 (``tests/service/test_float_totals.py``).
This mirrors ``builtin_sum_impl`` of CPython 3.12's
``Python/bltinmodule.c`` for exact ints and floats; other items take
the generic ``+`` path, as there.
"""

from __future__ import annotations

import math


def sum_312(iterable, /, start=0):
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool):
                total += item
                continue
            total = total + item  # the int fast path ends at the first other item
            break
    if type(total) is float:
        comp = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif type(item) in (int, bool):
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                comp = 0.0
                total = total + item
                break
        if comp and math.isfinite(comp):
            total += comp
    for item in items:
        total = total + item
    return total
