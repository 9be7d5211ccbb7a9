"""Float totals with one stated addition order.

A float total depends on the order of its additions, and Python's
builtin ``sum`` changed its order in 3.12: it compensates float
rounding (Neumaier), so the same addends give other bits than on 3.11.
Totals that reach a metric, a bill or an admission decision go through
these helpers instead, which add strictly left to right on every
Python and keep the 3.11 bits.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def left_sum(values: Iterable, start=0):
    """*start* plus every item of *values*, added one at a time from the
    left: builtin ``sum`` as CPython 3.11 computes it, on any Python.
    An empty *values* gives *start* (the int 0 by default, as ``sum``)."""
    total = start
    for value in values:
        total += value
    return total


def array_left_sum(values: np.ndarray):
    """:func:`left_sum` of a float array, added in C: the same bits as
    ``left_sum(values.tolist())``.

    ``np.add.accumulate`` adds strictly left to right (each partial sum
    feeds the next); ``np.sum``/``np.add.reduce`` add pairwise and give
    other bits.  The leading int ``0`` of ``left_sum`` changes a total
    only by turning ``-0.0`` into ``0.0``, which ``0 + total`` does
    too."""
    if not len(values):
        return 0
    return 0 + np.add.accumulate(values)[-1].item()


def group_left_sums(groups: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Per-group totals of *weights*: group ``g`` is ``0.0`` plus every
    ``weights[i]`` with ``groups[i] == g``, added in index order — the
    array form of :func:`left_sum`.

    A weighted ``np.bincount`` accumulates its output sequentially in
    index order, so it gives these bits; ``np.sum``/``np.add.reduce``
    add pairwise and give others."""
    return np.bincount(groups, weights, minlength=count)
