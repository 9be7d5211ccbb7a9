"""The four benchmark workloads.

Each workload is built by :func:`setup` from the seed and its
parameters (``spec.json`` holds the benchmark's; warm-up and the
self-test pass tiny ones) and runs as one *pass*: a fixed list of
operations executed in order.  The harness times every operation separately, so it can measure
the machine's speed between them (see ``measure.py``).

An operation returns an :class:`OpResult` whose ``output`` is plain
JSON data: the simulated results a pass is checked by.  The program
only ever sees the generated inputs; nothing here changes its settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.cloud.platform import CloudPlatform
from repro.core import metrics as core_metrics
from repro.core.allocation import HeftScheduler, LevelScheduler
from repro.experiments import runner
from repro.experiments.config import paper_strategies, paper_workflows
from repro.experiments.scenarios import paper_scenarios, scenario
from repro.experiments.service import ServiceCell, build_requests
from repro.kernels import replay
from repro.service.loop import WorkflowService
from repro.simulator import executor
from repro.workflows import generators

#: the paper's pairing: AllPar* need level knowledge, the rest HEFT
POLICIES = (
    ("AllParExceed", LevelScheduler),
    ("AllParNotExceed", LevelScheduler),
    ("StartParExceed", HeftScheduler),
    ("StartParNotExceed", HeftScheduler),
    ("OneVMperTask", HeftScheduler),
)


@dataclass
class OpResult:
    """What one operation produced."""

    #: JSON-stable simulated results, hashed into the pass digest
    output: object
    #: simulated tasks the operation scheduled or executed
    tasks: int
    #: operations attempted and failed inside this call (a sweep is
    #: 228 strategy rows, a service run one operation per submission)
    attempted: int = 1
    failed: int = 0


@dataclass
class Instance:
    """A workload with its inputs built, ready to run passes."""

    name: str
    #: (label, call, attempts) in pass order; each call returns an
    #: OpResult, and a call that raises fails all its attempts
    ops: List[Tuple[str, Callable[[], OpResult], int]] = field(default_factory=list)
    #: seconds set-up spent building the arrival stream (waas only)
    arrivals_s: float = 0.0


def _static_op(platform, projections: int, policy: str, scheduler, pareto_seed):
    """generate -> schedule -> verify -> evaluate for one policy.

    Module attributes are looked up at call time, so the traced pass
    sees the same calls through its timing wrappers."""

    def op() -> OpResult:
        wf = generators.montage(projections)
        if pareto_seed is not None:
            wf = scenario("pareto", platform).apply(wf, pareto_seed)
        sched = scheduler(policy).schedule(wf, platform)
        if not replay.replay_verify(sched):
            executor.simulate_schedule(sched, check=True)
        m = core_metrics.evaluate(sched)
        out = [policy, m.makespan, m.cost, m.vm_count, m.btus, m.idle_seconds]
        return OpResult(output=out, tasks=len(wf))

    return op


def static(name: str, projections: int, pareto_seed=None) -> Instance:
    platform = CloudPlatform.ec2()
    return Instance(
        name,
        [
            (policy, _static_op(platform, projections, policy, sched, pareto_seed), 1)
            for policy, sched in POLICIES
        ],
    )


def _sweep_op(platform, seed: int, workflows, grid: int) -> Callable[[], OpResult]:
    def op() -> OpResult:
        result = runner.run_sweep(
            platform=platform, seed=seed, backend="serial", verify=True
        )
        rows = [
            [sc, wf, label, m.makespan, m.cost, m.idle_seconds, m.vm_count,
             m.btus, m.gain_pct, m.loss_pct]
            for sc, wf, label, m in result.rows()
        ]
        tasks = sum(len(workflows[wf]) for _, wf, _, _ in result.rows())
        return OpResult(
            output=rows, tasks=tasks, attempted=grid, failed=grid - len(rows)
        )

    return op


def paper_sweep(seed: int, sweeps: int) -> Instance:
    platform = CloudPlatform.ec2()
    workflows = paper_workflows()
    grid = len(paper_strategies()) * len(workflows) * len(paper_scenarios(platform))
    return Instance(
        "paper-sweep",
        [
            (f"sweep{i}", _sweep_op(platform, seed + i, workflows, grid), grid)
            for i in range(sweeps)
        ],
    )


def waas(seed: int, **params) -> Instance:
    platform = CloudPlatform.ec2()
    cell = ServiceCell(platform=platform, seed=seed, **params)
    t0 = time.perf_counter()
    requests = build_requests(cell)
    arrivals_s = time.perf_counter() - t0

    def op() -> OpResult:
        service = WorkflowService(
            platform,
            policy=cell.policy,
            admission=cell.admission,
            max_concurrent=cell.max_concurrent,
        )
        result = service.run(requests)
        return OpResult(
            output=result.rollup(),
            tasks=sum(r.tasks for r in result.workflows),
            attempted=result.submitted,
            # an admitted workflow that never completes is a failure;
            # budget rejections are simulated outcomes, in the digest
            failed=result.admitted - result.completed,
        )

    return Instance("waas", [("service", op, cell.count)], arrivals_s=arrivals_s)


def setup(name: str, seed: int, params: dict) -> Instance:
    """Build workload *name*'s inputs for *seed* from *params*."""
    if name == "static-50k":
        # seed-free by design: the generator's own runtimes
        return static(name, params["projections"])
    if name == "static-pareto-5k":
        return static(name, params["projections"], pareto_seed=seed)
    if name == "paper-sweep":
        return paper_sweep(seed, **params)
    if name == "waas":
        return waas(seed, **params)
    raise ValueError(f"unknown workload {name!r}")


#: parameters of a tiny instance of each workload, run once in set-up so
#: lazy imports and first-call costs are paid before timing
WARMUP = {
    "static-50k": {"projections": 3},
    "static-pareto-5k": {"projections": 3},
    "paper-sweep": {"sweeps": 1},
    "waas": {"count": 5, "tenants": 2},
}
