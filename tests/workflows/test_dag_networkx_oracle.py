"""The workflow's own graph passes against networkx as an independent
reference.

Each example builds one random DAG from one edge sequence into both a
:class:`Workflow` and an ``nx.DiGraph``.  Task ids are inserted in a
shuffled order, so insertion order and lexicographic order differ, and
the sequence may repeat an edge.
"""

from itertools import chain

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkflowError
from repro.workflows.dag import Workflow
from repro.workflows.task import Task
from repro.workflows.transform import transitive_reduction


@st.composite
def dag_builds(draw):
    """``(ids, edges, split)``: ids in insertion order, edges oriented
    along a hidden rank so the graph is acyclic, and the position where
    the build switches from one batch insert to per-edge inserts."""
    n = draw(st.integers(2, 14))
    ids = draw(st.permutations([f"t{k:02d}" for k in range(n)]))
    rank = {t: i for i, t in enumerate(draw(st.permutations(ids)))}
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    edges = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in pairs]
    split = draw(st.integers(0, len(edges)))
    return ids, edges, split


def _nx_critical_path(graph):
    """Longest unit-work path: first maximum wins, in networkx's
    topological and predecessor orders."""
    dist, best = {}, {}
    for t in nx.topological_sort(graph):
        best[t] = max(graph.predecessors(t), key=dist.get, default=None)
        dist[t] = (dist[best[t]] if best[t] else 0.0) + 1.0
    path = [max(dist, key=dist.get)]
    while best[path[-1]]:
        path.append(best[path[-1]])
    return path[::-1], dist[path[0]]


def _build(ids, edges, split):
    wf = Workflow("oracle")
    wf.add_tasks(Task(t, 1.0) for t in ids)
    wf.add_dependencies((u, v, 0.0) for u, v in edges[:split])
    for u, v in edges[split:]:
        wf.add_dependency(u, v)
    graph = nx.DiGraph()
    graph.add_nodes_from(ids)
    graph.add_edges_from(edges)
    return wf.validate(), graph


@settings(max_examples=200, deadline=None)
@given(dag_builds())
def test_graph_passes_match_networkx(build):
    ids, edges, split = build
    wf, graph = _build(ids, edges, split)

    assert list(chain.from_iterable(wf._generations())) == list(
        nx.topological_sort(graph)
    )
    assert wf.topological_order() == list(nx.lexicographical_topological_sort(graph))
    # unit works: every tie-break is exercised
    assert wf.critical_path() == _nx_critical_path(graph)
    for t in ids:
        assert wf.descendants(t) == sorted(nx.descendants(graph, t))
        assert wf.ancestors(t) == sorted(nx.ancestors(graph, t))
    reduced = transitive_reduction(wf)
    assert {(u, v) for u, v, _ in reduced.edges()} == set(
        nx.transitive_reduction(graph).edges()
    )

    u, v = edges[0]
    wf.add_dependency(v, u)
    with pytest.raises(WorkflowError, match="cycle"):
        wf.validate()
