"""The stated-order float totals of :mod:`repro.util.totals`."""

import random

import numpy as np

from repro.util.totals import array_left_sum, group_left_sums, left_sum
from tests.oracles.py312_sum import sum_312


def _values(n, seed=5):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 3.0) * rng.choice((1, -1)) for _ in range(n)]


def test_left_sum_is_the_311_builtin_sum():
    """On 3.11, builtin ``sum`` adds left to right: same bits, same
    int 0 for nothing to add."""
    xs = _values(1000)
    assert repr(left_sum(xs)) == repr(sum(xs)) != repr(sum_312(xs))
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum(iter([1, 2, 3])) == 6
    assert left_sum([0.1] * 10) == 0.9999999999999999


def test_emulated_312_sum_compensates():
    assert sum_312([0.1] * 10) == 1.0
    assert sum_312([1e100, 1.0, -1e100]) == 1.0
    assert sum_312([]) == 0 and sum_312([1, 2], 3) == 6
    assert sum_312([[1], [2]], []) == [1, 2]


def test_group_left_sums_add_in_index_order():
    """Each group is 0.0 plus its items in index order — a Python loop
    over the groups' members; a pairwise ``np.sum`` differs."""
    xs = np.array(_values(6000, seed=9))
    groups = np.array([i % 3 for i in range(len(xs))], np.intp)
    got = group_left_sums(groups, xs, 4).tolist()
    want = [0.0] * 4
    for g, x in zip(groups.tolist(), xs.tolist()):
        want[g] += x
    assert repr(got) == repr(want)
    assert any(float(np.sum(xs[groups == g])) != want[g] for g in range(3))


def test_array_left_sum_is_left_sum_of_the_list():
    """The array form adds in C with ``left_sum``'s bits, where a
    pairwise ``np.sum`` and 3.12's ``sum`` give others; an empty array
    is the int 0 and a lone ``-0.0`` becomes ``0.0``, as with
    ``left_sum``."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 1000, 50_000):
        xs = (rng.pareto(1.5, n) + 1.0) * 3.7
        assert repr(array_left_sum(xs)) == repr(left_sum(xs.tolist()))
    big = np.array(_values(5000, seed=4))
    want = left_sum(big.tolist())
    assert array_left_sum(big) == want != float(np.sum(big))
    assert want != sum_312(big.tolist())
    assert array_left_sum(np.array([])) == 0 and type(array_left_sum(np.array([]))) is int
    assert repr(array_left_sum(np.array([-0.0]))) == repr(left_sum([-0.0])) == "0.0"
