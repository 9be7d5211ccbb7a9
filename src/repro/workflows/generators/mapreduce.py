"""MapReduce workflow with two sequential map phases (paper Fig. 2c).

    split  ->  map1 x m  ->  map2 x m  ->  reduce x r  ->  merge

``map2_i`` consumes ``map1_i`` (the figure shows two *sequential* map
phases, not a shuffle between them); every reducer reads every second-
phase mapper (the shuffle), and a final merge joins the reducers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkflowError
from repro.workflows.dag import Workflow

_SPLIT_GB = 0.5  # per-mapper input chunk
_MAP_GB = 0.3  # map1 -> map2 intermediate
_SHUFFLE_GB = 0.1  # per mapper->reducer partition
_REDUCE_GB = 0.2  # reducer output


def mapreduce(mappers: int = 10, reducers: int = 2, name: str = "mapreduce") -> Workflow:
    """Build a two-phase MapReduce workflow.

    Defaults give ``1 + 10 + 10 + 2 + 1 = 24`` tasks, comparable to the
    paper's Montage instance.
    """
    if mappers < 1 or reducers < 1:
        raise WorkflowError("mapreduce needs >= 1 mapper and >= 1 reducer")
    m, r = mappers, reducers
    ids = (
        ["split"]
        + [f"map1_{i}" for i in range(m)]
        + [f"map2_{i}" for i in range(m)]
        + [f"reduce_{j}" for j in range(r)]
        + ["merge"]
    )
    works = [300.0] + [1000.0] * m + [800.0] * m + [1200.0] * r + [400.0]
    cats = ["split"] + ["map"] * (2 * m) + ["reduce"] * r + ["merge"]
    # task positions, in insertion order (scheduler tie-breaks read it)
    map1 = 1 + np.arange(m, dtype=np.int64)
    map2 = map1 + m
    reduces = 1 + 2 * m + np.arange(r, dtype=np.int64)
    merge = 1 + 2 * m + r
    # per mapper i: split -> map1_i, map1_i -> map2_i, then map2_i -> every
    # reducer (the shuffle); finally every reducer -> merge
    per_map = 2 + r
    src = np.empty((m, per_map), dtype=np.int64)
    dst = np.empty((m, per_map), dtype=np.int64)
    src[:, 0], dst[:, 0] = 0, map1
    src[:, 1], dst[:, 1] = map1, map2
    src[:, 2:], dst[:, 2:] = map2[:, None], reduces[None, :]
    gb = np.tile([_SPLIT_GB, _MAP_GB] + [_SHUFFLE_GB] * r, m)
    return Workflow.from_arrays(
        name,
        ids,
        works,
        cats,
        np.concatenate([src.ravel(), reduces]),
        np.concatenate([dst.ravel(), np.full(r, merge)]),
        np.concatenate([gb, np.full(r, _REDUCE_GB)]),
    )
