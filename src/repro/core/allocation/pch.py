"""Path Clustering Heuristic (PCH) scheduling.

The paper's related work leans on PCH (Bittencourt & Madeira) — HCOC's
foundation: cluster tasks lying on the same priority path so their
hand-offs stay on one machine (zero communication), then give each
cluster its own VM.  This implementation builds clusters by walking,
from the highest-priority unclustered task, to the highest-priority
unclustered successor until the path dead-ends; every cluster runs
sequentially on a dedicated VM of the run's instance type.

Unlike the reuse policies, PCH *reserves* each cluster's VM for the
cluster's whole lifetime: if a member waits on an out-of-cluster
predecessor, the VM idles (and is billed) through the wait rather than
being deprovisioned — reservation, not idle-reuse, so the BTU-boundary
liveness rule does not apply inside a cluster.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.ranking import upward_rank
from repro.core.builder import ScheduleBuilder
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


def pch_clusters(
    workflow: Workflow, platform: CloudPlatform, itype: InstanceType
) -> List[List[str]]:
    """Priority-path clusters, in decreasing head-priority order.

    Every task belongs to exactly one cluster; each cluster is a path in
    the DAG (so running it sequentially respects its internal edges).
    """
    ranks = upward_rank(workflow, platform, itype)
    order = sorted(workflow.task_ids, key=lambda t: (-ranks[t], t))
    unclustered: Set[str] = set(workflow.task_ids)
    clusters: List[List[str]] = []
    for tid in order:
        if tid not in unclustered:
            continue
        path = [tid]
        unclustered.remove(tid)
        current = tid
        while True:
            candidates = [
                s for s in workflow.successors(current) if s in unclustered
            ]
            if not candidates:
                break
            nxt = max(candidates, key=lambda s: (ranks[s], s))
            path.append(nxt)
            unclustered.remove(nxt)
            current = nxt
        clusters.append(path)
    return clusters


@register_algorithm
class PchScheduler(SchedulingAlgorithm):
    """One VM per priority-path cluster."""

    name = "PCH"

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        clusters = pch_clusters(workflow, platform, itype)
        builder = ScheduleBuilder(workflow, platform, itype, region)
        vm_of_cluster = {i: builder.new_vm() for i in range(len(clusters))}
        cluster_of: Dict[str, int] = {
            tid: i for i, path in enumerate(clusters) for tid in path
        }
        # Place in global topological order: within a VM this preserves
        # the cluster's path order (paths are ancestor-ordered), across
        # VMs it guarantees predecessors carry times before dependents.
        for tid in workflow.topological_order():
            builder.begin_task(tid)
            builder.place(tid, vm_of_cluster[cluster_of[tid]])
        return builder.build(algorithm=self.name, provisioning="PCH")
