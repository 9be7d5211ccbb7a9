"""Columnar DAG representation and vectorized graph sweeps.

A :class:`ColumnarDAG` flattens a :class:`~repro.workflows.dag.Workflow`
into numpy arrays once per (workflow, mutation) generation — CSR
predecessor/successor adjacency with per-edge data volumes, a work
vector, lexicographic id ranks for string tie-breaks, and longest-path
levels — and is memoized in the workflow's structural cache, so every
kernel and every policy run over the same workflow shares one build.
A generated workflow is built straight into this form
(:meth:`ColumnarDAG.from_edges`, via ``Workflow.from_arrays``) and
has no object form until something asks for it.

The sweeps (:func:`level_values`, :func:`upward_rank_values`,
:func:`critical_path_columnar`) are level-synchronous: tasks are
processed one level per wave with ``np.maximum.reduceat`` over gathered
CSR segments.  ``max`` over float64 always returns one of its operands,
and each candidate is formed by the same single addition the scalar
kernels perform, so the values are byte-identical to the reference
sweeps — the property the kernel-equivalence tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.workflows.dag import _cycle_error

__all__ = [
    "ColumnarDAG",
    "get_columnar",
    "pred_lists",
    "pred_transfer_seconds",
    "succ_transfer_seconds",
    "fleet_costs",
    "level_of_columnar",
    "upward_rank_values",
    "critical_path_columnar",
]


class ColumnarDAG:
    """Array form of a validated workflow (read-only once built)."""

    __slots__ = (
        "ids",
        "index",
        "works",
        "str_rank",
        "pred_ptr",
        "pred_idx",
        "pred_gb",
        "pred_dst",
        "pred_rows",
        "succ_ptr",
        "succ_idx",
        "succ_gb",
        "levels",
        "n_levels",
        "level_sizes",
    )

    def __init__(self, workflow) -> None:
        """Graph-walk build from a workflow's object form."""
        #: task index <-> id, in workflow insertion order
        ids: List[str] = list(workflow._tasks)
        n = len(ids)
        index = {t: i for i, t in enumerate(ids)}
        works = np.fromiter(
            (t.work for t in workflow._tasks.values()), dtype=np.float64, count=n
        )
        # Predecessor CSR in *edge-insertion* order per task (the
        # ``_pred`` row order critical_path tie-breaks on).
        pred_ptr, pred_idx, pred_gb = _csr(ids, index, workflow._pred, n)
        self._build(workflow.name, ids, index, works, pred_ptr, pred_idx, pred_gb)

    @classmethod
    def from_edges(cls, name, ids, index, works, src, dst, gb) -> "ColumnarDAG":
        """Array build from integer-indexed edges ``src[k] -> dst[k]``
        (duplicate-free, in insertion order) — the same arrays the graph
        walk produces for a workflow that added those edges in that
        order, without the object form."""
        n = len(ids)
        # a stable sort by child keeps each predecessor row in edge-
        # insertion order, as the graph walk reads it from ``_pred``
        by_dst = np.argsort(dst, kind="stable")
        pred_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=pred_ptr[1:])
        self = cls.__new__(cls)
        self._build(name, ids, index, works, pred_ptr, src[by_dst], gb[by_dst])
        return self

    def _build(self, name, ids, index, works, pred_ptr, pred_idx, pred_gb) -> None:
        """Derive every other field from the ids, works and predecessor
        CSR; the cycle check is the level peel's count."""
        n = len(ids)
        self.ids = ids
        self.index: Dict[str, int] = index
        self.works = works
        # Lexicographic rank of each id: order-isomorphic to the id
        # string, so integer comparisons reproduce string tie-breaks.
        by_id = sorted(range(n), key=ids.__getitem__)
        str_rank = np.empty(n, dtype=np.int64)
        str_rank[by_id] = np.arange(n, dtype=np.int64)
        self.str_rank = str_rank
        self.pred_ptr = pred_ptr
        self.pred_idx = pred_idx
        self.pred_gb = pred_gb
        # Successor CSR derived by transposition — rows are ordered by
        # child index rather than ``_succ`` insertion order, which no
        # consumer observes: every successor sweep is a max/indegree
        # fold, and each (child, gb) pairing is preserved per edge.
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(pred_ptr))
        #: per predecessor edge its child, and the offsets of the
        #: nonempty predecessor rows (``np.maximum.reduceat`` segments)
        self.pred_dst = dst
        self.pred_rows = pred_ptr[:-1][np.diff(pred_ptr) > 0]
        by_src = np.argsort(pred_idx, kind="stable")
        self.succ_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pred_idx, minlength=n), out=self.succ_ptr[1:])
        self.succ_idx = dst[by_src]
        self.succ_gb = pred_gb[by_src]

        self.levels = _peel_levels(ids, pred_ptr, self.succ_ptr, self.succ_idx, name)
        self.n_levels = int(self.levels.max()) + 1 if n else 0
        self.level_sizes = np.bincount(self.levels, minlength=self.n_levels)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return int(self.pred_idx.shape[0])

    # ------------------------------------------------------------------
    def level_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: task indices grouped by level (stable
        within a level, i.e. insertion order) and the per-level offsets
        into that order (length ``n_levels + 1``)."""
        order = np.argsort(self.levels, kind="stable")
        starts = np.zeros(self.n_levels + 1, dtype=np.int64)
        np.cumsum(self.level_sizes, out=starts[1:])
        return order, starts


def _csr(ids, index, adj, n):
    """Flatten ``{task: {neighbour: data_gb}}`` adjacency rows into CSR
    arrays.

    Row contents are gathered with C-level ``map``/``extend`` — at 50k
    tasks the per-item generator bytecode this replaces dominated the
    whole build.
    """
    counts = np.fromiter((len(adj[t]) for t in ids), dtype=np.int64, count=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    lookup = index.__getitem__
    flat_idx: list = []
    flat_gb: list = []
    put_idx = flat_idx.extend
    put_gb = flat_gb.extend
    for t in ids:
        row = adj[t]
        if row:
            put_idx(map(lookup, row))
            put_gb(row.values())
    idx = np.array(flat_idx, dtype=np.int64)
    gb = np.array(flat_gb, dtype=np.float64)
    return ptr, idx, gb


def _peel_levels(ids, pred_ptr, succ_ptr, succ_idx, name) -> np.ndarray:
    """Longest-path depth per task via level-synchronous Kahn peeling.

    One wave per DAG level: peel every task whose predecessors are all
    peeled, decrement successor in-degrees in bulk.  Values match
    ``Workflow.level_of`` (1 + max over predecessors) exactly — the
    depth is order-independent.  A cycle raises the error
    ``Workflow.validate`` raises, naming the tasks never peeled.
    """
    n = len(ids)
    indeg = np.diff(pred_ptr).copy()
    succ_cnt = np.diff(succ_ptr)
    levels = np.full(n, -1, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    done = 0
    while frontier.size:
        levels[frontier] = lvl
        done += frontier.size
        targets = succ_idx[gather_csr(succ_ptr, frontier, succ_cnt[frontier])]
        if targets.size:
            indeg -= np.bincount(targets, minlength=n)
        frontier = np.flatnonzero((indeg == 0) & (levels == -1))
        lvl += 1
    if done != n:  # the acyclicity check of the array build
        stuck = np.flatnonzero(levels < 0).tolist()
        raise _cycle_error(name, map(ids.__getitem__, stuck))
    return levels


def gather_csr(ptr, nodes, counts) -> np.ndarray:
    """Flat positions of the CSR rows of *nodes* (segments contiguous,
    in *nodes* order); ``counts`` must be ``ptr`` row lengths."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(excl, counts)
        + np.repeat(ptr[nodes], counts)
    )


# ----------------------------------------------------------------------
# workflow-level cache
# ----------------------------------------------------------------------
def get_columnar(workflow) -> ColumnarDAG:
    """The memoized :class:`ColumnarDAG` of *workflow* (built on first
    use, dropped by the workflow's mutation invalidation)."""
    workflow.validate()
    return workflow._memo("columnar_dag", lambda: ColumnarDAG(workflow))


def pred_lists(workflow) -> Tuple[List[int], List[int]]:
    """``(pred_ptr, pred_idx)`` of *workflow*'s :class:`ColumnarDAG` as
    Python lists, memoized with it (read-only, uncopied) — the per-edge
    sweeps index them item by item."""
    cd = get_columnar(workflow)
    return workflow._memo(
        "pred_lists", lambda: (cd.pred_ptr.tolist(), cd.pred_idx.tolist())
    )  # type: ignore[return-value]


def _flavor_key(name: str, platform, itype) -> tuple:
    """Workflow-memo key of a per-flavor vector: everything the vector
    reads besides the workflow — the flavor (speed-up, link) and the
    network's intra-region latency."""
    return (name, itype, platform.network.intra_region_latency_s)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


# ----------------------------------------------------------------------
# vectorized sweeps
# ----------------------------------------------------------------------
def level_of_columnar(workflow) -> Dict[str, int]:
    """``Workflow.level_of`` values from the columnar peel.

    Identical values; the dict is built in task-insertion order rather
    than topological order (no caller depends on iteration order — the
    builder does lookups, ``levels()`` re-sorts).
    """
    cd = get_columnar(workflow)
    return dict(zip(cd.ids, cd.levels.tolist()))


def transfer_seconds(gb: np.ndarray, lat: float, bw) -> np.ndarray:
    """Per-edge cross-VM transfer time, intra-region, over edge volumes
    *gb* at latency *lat* and bottleneck link *bw* (a scalar, or one
    value per edge).

    Inlines ``NetworkModel.transfer_time`` (a sealed class, so the
    formula is fixed): ``gb * 8 / bw + lat``, with a pure latency for
    zero-size control edges.  Identical elementwise IEEE operations to
    the scalar formula; *lat* may also be one value per edge.
    """
    if gb.size == 0:
        return gb.copy()
    return np.where(gb == 0.0, lat, gb * 8.0 / bw + lat)


def fleet_costs(cd, network, tvm, kind, flavors, zone=None) -> tuple:
    """A plan's per-task and per-edge costs, the DES's operands.

    *tvm* gives each task's VM position, *kind* each VM's slot in
    *flavors*, and *zone* each VM's region code (``None``: one region).
    Returns each task's runtime ``work / speedup`` on its own VM's
    flavor, and for each edge in predecessor-CSR order its transfer
    time: zero on one VM, else the bottleneck of the two links at the
    intra-region latency, or the inter-region one across zones.
    """
    src, dst = cd.pred_idx, cd.pred_dst
    k = kind[tvm]
    speed = np.array([x.speedup for x in flavors])[k]
    link = np.array([x.link_gbps for x in flavors])[k]
    bw = np.minimum(link[src], link[dst])
    a, b = tvm[src], tvm[dst]
    lat = network.intra_region_latency_s
    if zone is not None:
        lat = np.where(zone[a] == zone[b], lat, network.inter_region_latency_s)
    moved = transfer_seconds(cd.pred_gb, lat, bw)
    return cd.works / speed, np.where(a == b, 0.0, moved)


def _uniform_transfer(gb: np.ndarray, platform, itype) -> np.ndarray:
    return transfer_seconds(gb, platform.network.intra_region_latency_s, itype.link_gbps)


def pred_transfer_seconds(workflow, platform, itype) -> List[float]:
    """Transfer times between two VMs of flavor *itype* over the
    predecessor CSR's edges, as a list memoized per (workflow, flavor,
    latency); read-only."""
    cd = get_columnar(workflow)
    return workflow._memo(
        _flavor_key("pred_transfer", platform, itype),
        lambda: _uniform_transfer(cd.pred_gb, platform, itype).tolist(),
    )  # type: ignore[return-value]


def succ_transfer_seconds(workflow, platform, itype) -> np.ndarray:
    """:func:`pred_transfer_seconds` over the successor CSR's edges,
    memoized the same way; a read-only array."""
    cd = get_columnar(workflow)
    return workflow._memo(
        _flavor_key("succ_transfer", platform, itype),
        lambda: _frozen(_uniform_transfer(cd.succ_gb, platform, itype)),
    )  # type: ignore[return-value]


def upward_rank_values(workflow, platform, itype) -> np.ndarray:
    """HEFT upward ranks as a vector over the columnar index.

    Byte-identical to :func:`repro.core.allocation.ranking.upward_rank`
    — same per-edge ``transfer + rank`` additions, max over the same
    operands, same final ``runtime + best`` addition.  Memoized per
    (workflow, flavor, latency) — the values read nothing else — and
    returned read-only; a mutation of the workflow drops the entry.
    """
    return workflow._memo(
        _flavor_key("upward_rank", platform, itype),
        lambda: _frozen(_upward_rank_sweep(workflow, platform, itype)),
    )  # type: ignore[return-value]


def _upward_rank_sweep(workflow, platform, itype) -> np.ndarray:
    cd = get_columnar(workflow)
    n = cd.n
    runt = cd.works / itype.speedup
    succ_cnt = np.diff(cd.succ_ptr)
    tr = succ_transfer_seconds(workflow, platform, itype)
    ranks = np.empty(n, dtype=np.float64)
    order, starts = cd.level_groups()
    for lvl in range(cd.n_levels - 1, -1, -1):
        nodes = order[starts[lvl] : starts[lvl + 1]]
        ranks[nodes] = runt[nodes]
        cnt = succ_cnt[nodes]
        nz = nodes[cnt > 0]
        if not nz.size:
            continue
        cnz = succ_cnt[nz]
        flat = gather_csr(cd.succ_ptr, nz, cnz)
        vals = tr[flat] + ranks[cd.succ_idx[flat]]
        seg_starts = np.cumsum(cnz) - cnz
        best = np.maximum.reduceat(vals, seg_starts)
        # the scalar kernel folds from best = 0.0; candidates are
        # strictly positive (work > 0), so the max is unchanged — kept
        # for exactness with empty-successor semantics
        np.maximum(best, 0.0, out=best)
        ranks[nz] = runt[nz] + best
    return ranks


def critical_path_columnar(workflow) -> Tuple[List[str], float]:
    """``Workflow.critical_path()`` with default weights, vectorized.

    Longest path by task ``work`` with zero edge cost.  Tie-breaks match
    the scalar sweep exactly: per-task best predecessor is the *first*
    (edge-insertion order) predecessor achieving the max, and the end
    task is the first maximum in the workflow's generation-peel order —
    that order is only made when the global max actually ties.
    """
    cd = get_columnar(workflow)
    n = cd.n
    w = cd.works
    pred_cnt = np.diff(cd.pred_ptr)
    dist = np.empty(n, dtype=np.float64)
    best_pred = np.full(n, -1, dtype=np.int64)
    order, starts = cd.level_groups()
    for lvl in range(cd.n_levels):
        nodes = order[starts[lvl] : starts[lvl + 1]]
        cnt = pred_cnt[nodes]
        nz = nodes[cnt > 0]
        dist[nodes] = w[nodes]
        if not nz.size:
            continue
        cnz = pred_cnt[nz]
        flat = gather_csr(cd.pred_ptr, nz, cnz)
        vals = dist[cd.pred_idx[flat]]
        seg_starts = np.cumsum(cnz) - cnz
        best = np.maximum.reduceat(vals, seg_starts)
        # first flat position achieving the segment max (dist > 0, so a
        # predecessor always beats the scalar sweep's 0.0 starting best)
        total = vals.shape[0]
        pos = np.where(
            vals == np.repeat(best, cnz), np.arange(total, dtype=np.int64), total
        )
        first = np.minimum.reduceat(pos, seg_starts)
        best_pred[nz] = cd.pred_idx[flat[first]]
        dist[nz] = best + w[nz]
    top = float(dist.max()) if n else 0.0
    ties = np.flatnonzero(dist == top)
    if ties.size == 1:
        end = int(ties[0])
    else:
        # several tasks share the exact maximum: the scalar sweep
        # returns the first in generation-peel order
        tie_set = {cd.ids[i] for i in ties.tolist()}
        end = cd.index[
            next(t for gen in workflow._generations() for t in gen if t in tie_set)
        ]
    path = [end]
    while best_pred[path[-1]] >= 0:
        path.append(int(best_pred[path[-1]]))
    path.reverse()
    return [cd.ids[i] for i in path], float(dist[end])
