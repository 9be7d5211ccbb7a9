"""Straightforward (pre-indexed) DAG passes, kept as the oracle.

These are the original networkx-walking implementations of the
:class:`~repro.workflows.dag.Workflow` structural passes, before they
were rewritten as single O(V+E) sweeps over cached traversal orders.
The networkx graph is rebuilt from the workflow's successor rows, which
fixes networkx's topological order; predecessors are read from the
insertion-ordered predecessor rows, the order the tie-breaks follow.
They re-walk the graph on every call, so they are quadratic when issued
per-query — exactly why they were replaced — but they are *obviously*
correct, and the kernel-equivalence property tests assert the optimized
passes return byte-identical results on random DAGs (see
``tests/core/test_kernel_equivalence.py`` and DESIGN.md §9).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import networkx as nx

from repro.workflows.dag import Workflow


def _graph(workflow: Workflow) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(workflow.task_ids)
    for u, row in workflow._succ.items():
        graph.add_edges_from((u, v) for v in row)
    return graph


def level_of_reference(workflow: Workflow) -> Dict[str, int]:
    """Longest-path depth per task, walking the graph directly."""
    workflow.validate()
    graph = _graph(workflow)
    levels: Dict[str, int] = {}
    for tid in nx.topological_sort(graph):
        preds = list(graph.predecessors(tid))
        levels[tid] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def critical_path_reference(
    workflow: Workflow,
    exec_time: Callable[[str], float] | None = None,
    transfer_time: Callable[[str, str], float] | None = None,
) -> Tuple[List[str], float]:
    """Longest weighted path, walking the graph directly."""
    workflow.validate()
    graph = _graph(workflow)
    w = exec_time or (lambda tid: workflow.task(tid).work)
    c = transfer_time or (lambda u, v: 0.0)
    dist: Dict[str, float] = {}
    best_pred: Dict[str, str | None] = {}
    for tid in nx.topological_sort(graph):
        best, pred = 0.0, None
        for p in workflow._pred[tid]:
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
