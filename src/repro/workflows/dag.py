"""Directed-acyclic-graph workflow model.

Keeps the DAG in two adjacency dicts, ``_succ`` and ``_pred``: one row
per task, in task order, mapping each neighbour (in edge-insertion
order) to the size (GB) of the data the parent ships to the child.
Provides the graph queries every scheduler in the paper needs: entry and
exit tasks, topological order, *levels* (the paper's level-ranking unit
of parallelism), and the critical path (the backbone of CPA-Eager).

Structural queries are memoized: schedulers call ``topological_order``,
``levels``, ``predecessors``/``successors`` O(V·E) times per run, so
each is computed once and served from a cache that ``add_task`` and
``add_dependency`` invalidate (the *cached-DAG contract*, see
DESIGN.md).  Cached collections are copied on the way out, so callers
may mutate the returned lists freely.

Generated workflows are built straight into their columnar form
(:meth:`Workflow.from_arrays`); their :class:`Task` objects and
adjacency dicts are made once, on the first query that needs them.
Imposing a scenario on such a shape (:meth:`Workflow.with_works`)
copies its columns, so the object form is never made.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from itertools import chain
from math import inf, isfinite
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import WorkflowError
from repro.workflows.task import Task

_str_eq = operator.eq


class Workflow:
    """An immutable-after-validation DAG of :class:`Task` objects.

    Build one by adding tasks and dependencies, then call
    :meth:`validate` (or any query method — they validate lazily).
    ``data_gb`` on an edge is the volume the parent transfers to the
    child when they run on different VMs.
    """

    def __init__(self, name: str = "workflow") -> None:
        if not name:
            raise WorkflowError("workflow name must be non-empty")
        self.name = name
        self._tasks: Dict[str, Task] = {}
        #: ``{task: {neighbour: data_gb}}`` rows, edges in insertion order
        self._succ: Dict[str, Dict[str, float]] = {}
        self._pred: Dict[str, Dict[str, float]] = {}
        self._validated = False
        #: memoized structural queries; cleared on any mutation
        self._cache: Dict[str, object] = {}

    @classmethod
    def from_arrays(
        cls,
        name: str,
        ids: Sequence[str],
        works: Sequence[float],
        categories: Sequence[str],
        src: Sequence[int],
        dst: Sequence[int],
        gb: Sequence[float],
    ) -> "Workflow":
        """A validated workflow from columns: per task its id, reference
        work and category; per dependency the *positions* of its parent
        and child in *ids* and the GB it ships, in insertion order.

        The result equals building the same tasks and edges with
        :meth:`add_tasks` and :meth:`add_dependencies`, with every check
        they make (a duplicate edge keeps its first position and its
        last volume).  Only the :class:`ColumnarDAG` is built; the
        :class:`Task` objects and adjacency dicts are made on the first
        object-level query (:meth:`task`, iteration, :meth:`edges`, ...).
        """
        wf = cls(name)
        ids = list(ids)
        n = len(ids)
        if not n:
            raise WorkflowError(f"workflow {name!r} has no tasks")
        if not all(isinstance(t, str) and t for t in ids):
            bad = next(t for t in ids if not t or not isinstance(t, str))
            raise WorkflowError(f"task id must be a non-empty string, got {bad!r}")
        index = dict(zip(ids, range(n)))
        if len(index) != n:
            seen: set = set()
            dup = next(t for t in ids if t in seen or seen.add(t))
            raise WorkflowError(f"duplicate task id {dup!r} in {name!r}")
        works = np.asarray(works, dtype=np.float64)
        categories = list(categories)
        if works.shape != (n,) or len(categories) != n:
            raise WorkflowError("ids, works and categories must have one entry per task")
        bad = np.flatnonzero(~((works > 0) & (works < np.inf)))
        if bad.size:
            t = int(bad[0])
            raise WorkflowError(
                f"task {ids[t]!r}: work must be a positive finite number, "
                f"got {float(works[t])!r}"
            )
        src = _positions(src)
        dst = _positions(dst)
        gb = np.asarray(gb, dtype=np.float64)
        if not (src.shape == dst.shape == gb.shape):
            raise WorkflowError("src, dst and gb must have one entry per dependency")
        for end in (src, dst):
            out = np.flatnonzero((end < 0) | (end >= n))
            if out.size:
                raise WorkflowError(
                    f"unknown task {int(end[out[0]])!r} in dependency"
                )
        loops = np.flatnonzero(src == dst)
        if loops.size:
            raise WorkflowError(f"self-dependency on {ids[int(src[loops[0]])]!r}")
        bad = np.flatnonzero(~((gb >= 0) & (gb < np.inf)))
        if bad.size:
            k = int(bad[0])
            _check_volume(ids[int(src[k])], ids[int(dst[k])], float(gb[k]))
        from repro.kernels.columnar import ColumnarDAG

        src, dst, gb = _dedupe_edges(src, dst, gb, n)
        cd = ColumnarDAG.from_edges(name, ids, index, works, src, dst, gb)
        del wf._tasks, wf._succ, wf._pred  # made on first use, see _ArrayWorkflow
        wf.__class__ = _ArrayWorkflow
        wf._lazy = (cd, categories, (src, dst, gb))
        wf._cache["columnar_dag"] = cd
        wf._validated = True
        return wf

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Register *task*; ids must be unique."""
        if task.id in self._tasks:
            raise WorkflowError(f"duplicate task id {task.id!r} in {self.name!r}")
        self._tasks[task.id] = task
        self._succ[task.id] = {}
        self._pred[task.id] = {}
        self._invalidate()
        return task

    def add_tasks(self, tasks) -> List[Task]:
        """Register many tasks at once — the batch twin of
        :meth:`add_task` (one cache invalidation), used by the copy and
        the object build of an array-built workflow."""
        registry = self._tasks
        added: List[Task] = []
        for task in tasks:
            if task.id in registry:
                raise WorkflowError(
                    f"duplicate task id {task.id!r} in {self.name!r}"
                )
            registry[task.id] = task
            added.append(task)
        succ = self._succ
        pred = self._pred
        for t in added:
            succ[t.id] = {}
            pred[t.id] = {}
        self._invalidate()
        return added

    def add_dependency(self, parent: str, child: str, data_gb: float = 0.0) -> None:
        """Add a *parent -> child* edge shipping *data_gb* gigabytes."""
        for tid in (parent, child):
            if tid not in self._tasks:
                raise WorkflowError(f"unknown task {tid!r} in dependency")
        if parent == child:
            raise WorkflowError(f"self-dependency on {parent!r}")
        _check_volume(parent, child, data_gb)
        # a repeated edge keeps its first position and takes the new volume
        self._succ[parent][child] = self._pred[child][parent] = float(data_gb)
        self._invalidate()

    def add_dependencies(self, deps) -> None:
        """Add many ``(parent, child, data_gb)`` edges at once — same
        checks and insertion order as per-edge :meth:`add_dependency`,
        validated in bulk (C-level set/min scans; the per-edge loop is
        re-run only to name the offender when a check fails)."""
        deps = list(deps)
        if not deps:
            return
        us, vs, gbs = zip(*deps)
        registry = self._tasks
        if not (registry.keys() >= set(us) and registry.keys() >= set(vs)):
            for parent, child, _ in deps:
                for tid in (parent, child):
                    if tid not in registry:
                        raise WorkflowError(f"unknown task {tid!r} in dependency")
        if any(map(_str_eq, us, vs)):
            parent = next(u for u, v, _ in deps if u == v)
            raise WorkflowError(f"self-dependency on {parent!r}")
        if not all(map(isfinite, gbs)) or min(gbs) < 0:
            for parent, child, gb in deps:
                _check_volume(parent, child, gb)
        succ = self._succ
        pred = self._pred
        for u, v, gb in zip(us, vs, map(float, gbs)):
            succ[u][v] = pred[v][u] = gb
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop every memoized query after a structural mutation."""
        self._validated = False
        self._cache.clear()

    @property
    def validated(self) -> bool:
        """True when the structure has been checked since the last
        mutation (the cached validated flag)."""
        return self._validated

    def validate(self) -> "Workflow":
        """Check the structure; raises :class:`WorkflowError` on cycles or
        an empty workflow. Returns ``self`` for chaining.

        The check is the O(V+E) generation peel, whose order it memoizes
        for :meth:`critical_path`.  Mutations reset
        the validated flag, and only add nodes/edges, so a workflow that
        passed once and has not been mutated is still acyclic and
        returns immediately.
        """
        if self._validated:
            return self
        if not self._tasks:
            raise WorkflowError(f"workflow {self.name!r} has no tasks")
        self._cache["generations"] = _peel(self._succ, self.name)
        self._validated = True
        return self

    def _require_valid(self) -> None:
        if not self._validated:
            self.validate()

    def _memo(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return the cached value for *key*, computing it on a miss."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise WorkflowError(f"unknown task {task_id!r}") from None

    @property
    def task_ids(self) -> List[str]:
        return list(self._tasks)

    def _task_index(self) -> Tuple[List[str], Dict[str, int]]:
        """Memoized ``(ids, {id: position})`` in insertion order — the
        task index every columnar structure (and :class:`Schedule`'s
        columns) is laid out on; read-only, uncopied."""
        cd = self._cache.get("columnar_dag")
        if cd is not None:
            return cd.ids, cd.index

        def build():
            ids = list(self._tasks)
            return ids, dict(zip(ids, range(len(ids))))

        return self._memo("task_index", build)  # type: ignore[return-value]

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def edges(self) -> List[Tuple[str, str, float]]:
        """All dependencies as ``(parent, child, data_gb)`` triples."""
        cached = self._memo(
            "edges",
            lambda: [
                (u, v, gb) for u, row in self._succ.items() for v, gb in row.items()
            ],
        )
        return list(cached)

    def _edge_data(self) -> Dict[Tuple[str, str], float]:
        """Memoized ``{(parent, child): data_gb}`` — schedulers query
        edge volumes millions of times per run, keyed by the pair."""
        return self._memo(
            "edge_data",
            lambda: {
                (u, v): gb for u, row in self._succ.items() for v, gb in row.items()
            },
        )  # type: ignore[return-value]

    def data_gb(self, parent: str, child: str) -> float:
        try:
            return self._edge_data()[parent, child]
        except KeyError:
            raise WorkflowError(f"no dependency {parent!r}->{child!r}") from None

    def _adjacency(self) -> Dict[str, Dict[str, List[str]]]:
        """Memoized ``{"pred": {task: [...]}, "succ": {task: [...]}}``."""
        def build():
            return {
                "pred": {t: sorted(row) for t, row in self._pred.items()},
                "succ": {t: sorted(row) for t, row in self._succ.items()},
            }

        return self._memo("adjacency", build)  # type: ignore[return-value]

    def predecessors(self, task_id: str) -> List[str]:
        self.task(task_id)
        return list(self._adjacency()["pred"][task_id])

    def successors(self, task_id: str) -> List[str]:
        self.task(task_id)
        return list(self._adjacency()["succ"][task_id])

    def pred_map(self) -> Mapping[str, List[str]]:
        """The memoized ``{task: sorted predecessor ids}`` mapping.

        Returned **without copying** — treat it as read-only.  This is
        the hot-path twin of :meth:`predecessors`: the scheduling kernels
        touch every edge per placement, and per-call list copies dominate
        their profile at 50k+ tasks.
        """
        return self._adjacency()["pred"]

    def succ_map(self) -> Mapping[str, List[str]]:
        """The memoized ``{task: sorted successor ids}`` mapping
        (read-only, uncopied); see :meth:`pred_map`."""
        return self._adjacency()["succ"]

    def edge_data_map(self) -> Mapping[Tuple[str, str], float]:
        """The memoized ``{(parent, child): data_gb}`` mapping
        (read-only, uncopied); see :meth:`pred_map`."""
        return self._edge_data()

    # ------------------------------------------------------------------
    # cached traversal orders (the O(V+E) sweep backbone)
    # ------------------------------------------------------------------
    def _generations(self) -> List[List[str]]:
        """The memoized generation peel of :meth:`validate` (tasks
        grouped by level, each in peel order)."""
        self._require_valid()
        return self._memo(
            "generations", lambda: _peel(self._succ, self.name)
        )  # type: ignore[return-value]

    def entry_tasks(self) -> List[str]:
        """Tasks with no predecessors (the paper's *initial* tasks)."""
        self._require_valid()
        cached = self._memo(
            "entry_tasks",
            lambda: sorted(
                t for t, ps in self._adjacency()["pred"].items() if not ps
            ),
        )
        return list(cached)

    def exit_tasks(self) -> List[str]:
        self._require_valid()
        cached = self._memo(
            "exit_tasks",
            lambda: sorted(
                t for t, ss in self._adjacency()["succ"].items() if not ss
            ),
        )
        return list(cached)

    def topological_order(self) -> List[str]:
        """A deterministic topological order (lexicographic tie-break):
        always the smallest ready id next."""
        self._require_valid()

        def build():
            succ = self._succ
            indeg = {t: len(row) for t, row in self._pred.items()}
            ready = [t for t, d in indeg.items() if not d]
            heapq.heapify(ready)
            order = []
            while ready:
                t = heapq.heappop(ready)
                order.append(t)
                for c in succ[t]:
                    indeg[c] -= 1
                    if not indeg[c]:
                        heapq.heappush(ready, c)
            return order

        return list(self._memo("topological_order", build))

    # ------------------------------------------------------------------
    # structure used by the schedulers
    # ------------------------------------------------------------------
    def level_of(self) -> Dict[str, int]:
        """Longest-path depth of every task (entry tasks are level 0).

        This is the paper's *level ranking*: all tasks in one level are
        mutually independent and may run in parallel.
        """
        self._require_valid()

        def build():
            # Kahn wave peel over the CSR arrays (one bincount pass per
            # level).  The dict is in task order; every consumer
            # (lookups, ``levels()`` regrouping, dict equality) is
            # iteration-order-agnostic.
            from repro.kernels.columnar import level_of_columnar

            return level_of_columnar(self)

        return dict(self._memo("level_of", build))  # type: ignore[arg-type]

    def levels(self) -> List[List[str]]:
        """Tasks grouped by level, each group sorted by id."""

        def build():
            by_level: Dict[int, List[str]] = {}
            for tid, lvl in self.level_of().items():
                by_level.setdefault(lvl, []).append(tid)
            return [sorted(by_level[k]) for k in sorted(by_level)]

        cached = self._memo("levels", build)
        return [list(level) for level in cached]

    def max_parallelism(self) -> int:
        """Width of the widest level."""
        return self._memo(
            "max_parallelism",
            lambda: max(len(level) for level in self.levels()),
        )  # type: ignore[return-value]

    def critical_path(
        self,
        exec_time: Callable[[str], float] | None = None,
        transfer_time: Callable[[str, str], float] | None = None,
    ) -> Tuple[List[str], float]:
        """Longest path through the DAG and its length.

        *exec_time* maps a task id to its duration (defaults to the
        reference ``work``); *transfer_time* maps an edge to its
        communication delay (defaults to zero, the CPU-intensive case).
        Returns ``(path_task_ids, path_length_seconds)``.
        """
        self._require_valid()
        if exec_time is None and transfer_time is None:
            # default weights: the vectorized level sweep reproduces the
            # scalar first-maximum tie-breaks (property-tested)
            from repro.kernels.columnar import critical_path_columnar

            return critical_path_columnar(self)
        w = exec_time or (lambda tid: self._tasks[tid].work)
        c = transfer_time or (lambda u, v: 0.0)
        # One O(V+E) sweep in peel order over insertion-ordered
        # predecessor rows: the first maximum wins every tie-break.
        preds_of = self._pred
        dist: Dict[str, float] = {}
        best_pred: Dict[str, str | None] = {}
        for tid in chain.from_iterable(self._generations()):
            best, pred = 0.0, None
            for p in preds_of[tid]:
                cand = dist[p] + c(p, tid)
                if cand > best:
                    best, pred = cand, p
            dist[tid] = best + w(tid)
            best_pred[tid] = pred
        end = max(dist, key=lambda t: dist[t])
        path = [end]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path, dist[end]

    def total_work(self) -> float:
        """Sum of reference execution times over all tasks."""
        return sum(t.work for t in self._tasks.values())

    def descendants(self, task_id: str) -> List[str]:
        self.task(task_id)
        return sorted(_reach(self._succ, task_id))

    def ancestors(self, task_id: str) -> List[str]:
        self.task(task_id)
        return sorted(_reach(self._pred, task_id))

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def with_works(self, works: Mapping[str, float]) -> "Workflow":
        """Copy of this workflow with task execution times replaced.

        *works* must cover every task; used to impose an execution-time
        scenario (Pareto, best case, worst case) on a fixed shape.
        """
        return self._copy(works, {})

    def with_data_sizes(self, sizes: Mapping[Tuple[str, str], float]) -> "Workflow":
        """Copy with edge data volumes replaced (missing edges keep theirs)."""
        return self._copy(None, sizes)

    def _copy(self, works, sizes) -> "Workflow":
        """Validated copy with *works* (``None``: kept) and *sizes*
        imposed, edges re-added parent-major.  An array build with no
        object form yet copies its columns, edges stable-sorted by parent
        into that order; any other copies its tasks, ``attrs`` included."""
        ids = self.task_ids
        if works is not None:
            missing = set(ids) - set(works)
            if missing:
                raise WorkflowError(f"works missing for tasks: {sorted(missing)}")
            works = list(map(works.__getitem__, ids))
        lazy = self.__dict__.get("_lazy")
        if lazy is None:
            tasks = self.tasks
            out = Workflow(self.name)
            out.add_tasks(tasks if works is None else map(Task.with_work, tasks, works))
            edges = self.edges()
            out.add_dependencies((u, v, sizes.get((u, v), g)) for u, v, g in edges)
            return out.validate()
        cd, categories, edges = lazy
        src, dst, gb = _parent_major(*edges)
        if sizes:
            id_of = ids.__getitem__
            pairs = zip(map(id_of, src.tolist()), map(id_of, dst.tolist()))
            gb = np.array(list(map(sizes.get, pairs, gb.tolist())), dtype=np.float64)
        cols = (ids, cd.works if works is None else works, categories)
        return Workflow.from_arrays(self.name, *cols, src, dst, gb)

    def _edge_pairs(self) -> List[Tuple[str, str]]:
        """``(parent, child)`` of every dependency in :meth:`edges`
        order; an array build with no object form yet reads its
        columns and stays lazy."""
        lazy = self.__dict__.get("_lazy")
        if lazy is None:
            return [(u, v) for u, v, _ in self.edges()]
        src, dst, _ = _parent_major(*lazy[2])
        id_of = lazy[0].ids.__getitem__
        return list(zip(map(id_of, src.tolist()), map(id_of, dst.tolist())))

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Structural statistics (used by the Figure 2 regenerator)."""
        self._require_valid()
        levels = self.levels()
        cp, cp_len = self.critical_path()
        return {
            "name": self.name,
            "tasks": len(self),
            "edges": len(self.edges()),
            "entry_tasks": len(self.entry_tasks()),
            "exit_tasks": len(self.exit_tasks()),
            "levels": len(levels),
            "max_parallelism": self.max_parallelism(),
            "critical_path_tasks": len(cp),
            "critical_path_seconds": cp_len,
            "total_work_seconds": self.total_work(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workflow({self.name!r}, tasks={len(self)}, "
            f"edges={len(self.edges())})"
        )


class _ArrayWorkflow(Workflow):
    """A workflow built by :meth:`Workflow.from_arrays` whose object
    form is not made yet.

    Size and id queries read the :class:`ColumnarDAG`.  The first access
    to ``_tasks``, ``_succ`` or ``_pred`` (any object-level query) makes the
    object form and turns the instance back into a plain
    :class:`Workflow` — so the attribute hook below never slows the
    object path's attribute lookups.
    """

    #: ``(ColumnarDAG, categories, (src, dst, gb))``, edges deduplicated
    _lazy: tuple

    def __getattr__(self, name: str):
        # reached only when normal lookup fails
        if name in ("_tasks", "_succ", "_pred"):
            _ArrayWorkflow._materialize(self)
            return self.__dict__[name]
        raise AttributeError(f"'Workflow' object has no attribute {name!r}")

    def _materialize(self) -> None:
        """Make the :class:`Task` objects and adjacency dicts by the
        object build itself, so insertion orders match.  The structure
        is unchanged, so every memo stays valid."""
        lazy = self.__dict__.get("_lazy")
        if lazy is None:  # made meanwhile (another thread's query)
            return
        cd, categories, (src, dst, gb) = lazy
        ids = cd.ids
        twin = Workflow(self.name)
        twin.add_tasks(map(Task, ids, cd.works.tolist(), categories))
        twin.add_dependencies(
            zip(
                map(ids.__getitem__, src.tolist()),
                map(ids.__getitem__, dst.tolist()),
                gb.tolist(),
            )
        )
        self._tasks = twin._tasks
        self._succ = twin._succ
        self._pred = twin._pred
        self.__class__ = Workflow
        self.__dict__.pop("_lazy", None)

    def __len__(self) -> int:
        return self._lazy[0].n

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._lazy[0].index

    @property
    def task_ids(self) -> List[str]:
        return list(self._lazy[0].ids)

    def total_work(self) -> float:
        return sum(self._lazy[0].works.tolist())


def _parent_major(src: np.ndarray, dst: np.ndarray, gb: np.ndarray):
    """Deduplicated edge columns stable-sorted by parent position: the
    order :meth:`Workflow.edges` lists them once the object form is made
    (rows in task order, children in insertion order)."""
    p = np.argsort(src, kind="stable")
    return src[p], dst[p], gb[p]


def _check_volume(parent: str, child: str, gb: float) -> None:
    """Refuse an edge volume that is negative, infinite or NaN."""
    if gb < 0:
        raise WorkflowError(f"negative data size on {parent!r}->{child!r}")
    if not gb < inf:
        raise WorkflowError(f"non-finite data size {gb!r} on {parent!r}->{child!r}")


def _peel(succ: Mapping[str, Mapping[str, object]], name: str) -> List[List[str]]:
    """Kahn peel of the graph *succ* (``{node: {child: ...}}``, every
    node a key) into generations: the roots in key order, then the
    tasks each generation frees, in the order the generation's rows list
    them.  A task's generation index is its longest-path depth.  Raises
    :class:`WorkflowError` naming the tasks never peeled when the graph
    has a cycle."""
    indeg = Counter(chain.from_iterable(succ.values()))
    gen = [t for t in succ if not indeg[t]]
    gens = []
    while gen:
        gens.append(gen)
        nxt = []
        for t in gen:
            for c in succ[t]:
                indeg[c] -= 1
                if not indeg[c]:
                    nxt.append(c)
        gen = nxt
    if sum(map(len, gens)) != len(succ):
        raise _cycle_error(name, [t for t, d in indeg.items() if d > 0])
    return gens


def _cycle_error(name: str, stuck) -> WorkflowError:
    """The error of a peel that left the tasks *stuck* unpeeled: their
    count and the first five by id."""
    stuck = sorted(stuck)
    return WorkflowError(
        f"workflow {name!r} has a cycle: {len(stuck)} task(s) never "
        f"become ready, first {stuck[:5]}"
    )


def _reach(adj: Mapping[str, Mapping[str, object]], start: str) -> set:
    """Nodes reachable from *start* along *adj* rows (excluding it
    unless it lies on a cycle) — one graph search."""
    seen: set = set()
    stack = [start]
    while stack:
        for c in adj[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _positions(values) -> np.ndarray:
    """*values* as an int64 array of task positions; a non-integer
    array is refused rather than truncated."""
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise WorkflowError(f"dependency endpoints must be task positions, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _dedupe_edges(src, dst, gb, n):
    """Drop repeated ``(src, dst)`` pairs the way repeated dict stores
    do: each edge keeps its first position and its last volume."""
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    sk = key[order]
    head = np.ones(sk.shape, dtype=bool)
    head[1:] = sk[1:] != sk[:-1]
    if head.all():
        return src, dst, gb
    starts = np.flatnonzero(head)
    last = order[np.append(starts[1:], sk.size) - 1]
    first = order[starts]
    keep = np.argsort(first, kind="stable")
    first = first[keep]
    return src[first], dst[first], gb[last[keep]]
