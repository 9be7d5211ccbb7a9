"""Workflow graph transformations.

Preprocessing steps the clustering literature (PCH, HCOC — the paper's
related work) applies before scheduling:

* :func:`transitive_reduction` — drop dependencies implied by longer
  paths; they never change timing but inflate rank/transfer bookkeeping;
* :func:`merge_chains` — collapse maximal linear chains into single
  tasks (sum of works, inherited boundary edges), the degenerate
  clustering that is always makespan-safe on one VM;
* :func:`chain_decomposition` — the maximal chains themselves, for
  callers that want the clusters without rewriting the graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import WorkflowError
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


def transitive_reduction(wf: Workflow) -> Workflow:
    """Copy of *wf* without edges implied by longer paths.

    The data volume of a removed edge is *not* rerouted: a transitive
    edge's payload still has to travel, so removal is only safe when the
    redundant edges carry no data — otherwise the edge is kept.
    """
    wf.validate()
    below: Dict[str, set] = {}  # descendants per task, on first need

    def reach(w: str) -> set:
        if w not in below:
            below[w] = set(wf.descendants(w))
        return below[w]

    out = Workflow(wf.name)
    for task in wf.tasks:
        out.add_task(task)
    for u, v, gb in wf.edges():
        # implied when another successor of u already reaches v
        if gb > 0 or not any(v in reach(w) for w in wf.successors(u) if w != v):
            out.add_dependency(u, v, gb)
    return out.validate()


def chain_decomposition(wf: Workflow) -> List[List[str]]:
    """Maximal linear chains: runs of tasks where each interior link is
    the sole successor of its predecessor and the sole predecessor of
    its successor.  Every task appears in exactly one chain (possibly a
    singleton); chains are reported in topological order of their heads.
    """
    wf.validate()
    in_chain: Dict[str, bool] = {}
    chains: List[List[str]] = []
    for tid in wf.topological_order():
        if in_chain.get(tid):
            continue
        chain = [tid]
        in_chain[tid] = True
        current = tid
        while True:
            succs = wf.successors(current)
            if len(succs) != 1:
                break
            nxt = succs[0]
            if len(wf.predecessors(nxt)) != 1 or in_chain.get(nxt):
                break
            chain.append(nxt)
            in_chain[nxt] = True
            current = nxt
        chains.append(chain)
    return chains


def merge_chains(wf: Workflow, separator: str = "+") -> Workflow:
    """Collapse each maximal chain into one task.

    The merged task's work is the chain's total work; its id joins the
    member ids with *separator*; boundary edges keep their volumes
    (intra-chain edges disappear — their data never leaves the VM).
    """
    wf.validate()
    chains = chain_decomposition(wf)
    owner: Dict[str, str] = {}
    merged_ids: Dict[str, List[str]] = {}
    for chain in chains:
        mid = separator.join(chain)
        merged_ids[mid] = chain
        for tid in chain:
            owner[tid] = mid

    out = Workflow(wf.name)
    for mid, members in merged_ids.items():
        total = sum(wf.task(t).work for t in members)
        category = wf.task(members[0]).category
        out.add_task(Task(mid, total, category, {"members": tuple(members)}))
    edges: Dict[Tuple[str, str], float] = {}
    for u, v, gb in wf.edges():
        mu, mv = owner[u], owner[v]
        if mu == mv:
            continue  # intra-chain hand-off: same VM, free
        edges[(mu, mv)] = edges.get((mu, mv), 0.0) + gb
    for (mu, mv), gb in sorted(edges.items()):
        out.add_dependency(mu, mv, gb)
    return out.validate()


def expand_merged_schedule_order(workflow: Workflow, merged_task_id: str) -> List[str]:
    """Member task ids of a merged task, in execution order."""
    members = workflow.task(merged_task_id).attrs.get("members")
    if members is None:
        raise WorkflowError(
            f"{merged_task_id!r} is not a merged task (no 'members' attr)"
        )
    return list(members)
