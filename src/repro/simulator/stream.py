"""Multi-workflow streams: instance-intensive scheduling.

The paper's related work (Liu et al.) studies *instance-intensive*
cloud workflows — many workflow instances arriving over time, sharing
one elastic fleet.  This module runs that scenario on the online
executor: submissions carry arrival times, task ids are namespaced per
instance, entry tasks become ready at arrival, and the provisioning
policy sees one shared fleet, so an instance can reuse VMs still alive
from earlier instances (the throughput advantage reuse buys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.errors import ExperimentError
from repro.simulator.online import OnlineCloudExecutor, OnlineResult
from repro.util.rng import ensure_rng
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


@dataclass(frozen=True)
class Submission:
    """One workflow instance entering the system at *arrival* seconds."""

    workflow: Workflow
    arrival: float
    name: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival):
            raise ExperimentError(f"arrival time must be finite, got {self.arrival}")
        if self.arrival < 0:
            raise ExperimentError(f"negative arrival time {self.arrival}")


@dataclass(frozen=True)
class StreamResult:
    """Outcome of a stream run: fleet totals + per-instance summaries."""

    online: OnlineResult
    #: per submission: (arrival, finish, response_time)
    per_instance: Tuple[Tuple[float, float, float], ...]

    @property
    def total_cost(self) -> float:
        return self.online.rent_cost

    @property
    def vm_count(self) -> int:
        return self.online.vm_count

    @property
    def idle_seconds(self) -> float:
        return self.online.idle_seconds

    @property
    def mean_response(self) -> float:
        return sum(r for _, _, r in self.per_instance) / len(self.per_instance)

    @property
    def max_response(self) -> float:
        return max(r for _, _, r in self.per_instance)


def merge_stream(
    submissions: Sequence[Submission],
) -> Tuple[Workflow, Dict[str, float], List[List[str]]]:
    """Merge submissions into one namespaced DAG.

    Returns ``(merged_workflow, release_times, per_instance_task_ids)``;
    task ``t`` of submission ``i`` becomes ``w{i}:{t}``, released (if an
    entry task) at the submission's arrival.
    """
    if not submissions:
        raise ExperimentError("stream needs at least one submission")
    merged = Workflow("stream")
    release: Dict[str, float] = {}
    groups: List[List[str]] = []
    for i, sub in enumerate(submissions):
        prefix = f"w{i}:"
        ids: List[str] = []
        for task in sub.workflow.tasks:
            merged.add_task(
                Task(f"{prefix}{task.id}", task.work, task.category, dict(task.attrs))
            )
            ids.append(f"{prefix}{task.id}")
        for u, v, gb in sub.workflow.edges():
            merged.add_dependency(f"{prefix}{u}", f"{prefix}{v}", gb)
        for entry in sub.workflow.entry_tasks():
            release[f"{prefix}{entry}"] = sub.arrival
        groups.append(ids)
    return merged.validate(), release, groups


def run_stream(
    submissions: Sequence[Submission],
    platform: CloudPlatform,
    policy: str = "StartParNotExceed",
    itype: InstanceType | None = None,
    region: Region | None = None,
) -> StreamResult:
    """Execute a submission stream on one shared online fleet."""
    merged, release, groups = merge_stream(submissions)
    executor = OnlineCloudExecutor(
        merged,
        platform,
        policy=policy,
        itype=itype or platform.itype("small"),
        region=region,
        release_times=release,
    )
    online = executor.run()
    per_instance = []
    for sub, ids in zip(submissions, groups):
        finish = max(online.task_finish[t] for t in ids)
        per_instance.append((sub.arrival, finish, finish - sub.arrival))
    return StreamResult(online=online, per_instance=tuple(per_instance))


def poisson_stream(
    workflow: Workflow,
    count: int,
    mean_interarrival: float,
    seed=None,
) -> List[Submission]:
    """*count* instances of *workflow* with exponential inter-arrivals."""
    if count < 1:
        raise ExperimentError("count must be >= 1")
    if not math.isfinite(mean_interarrival):
        raise ExperimentError(
            f"mean_interarrival must be finite, got {mean_interarrival}"
        )
    if mean_interarrival < 0:
        raise ExperimentError("mean_interarrival must be >= 0")
    rng = ensure_rng(seed)
    t = 0.0
    out: List[Submission] = []
    for i in range(count):
        out.append(Submission(workflow, t, name=f"{workflow.name}#{i}"))
        t += float(rng.exponential(mean_interarrival)) if mean_interarrival else 0.0
    return out
