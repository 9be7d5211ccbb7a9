"""The WaaS service loop: arrivals → admission → shared-fleet execution.

One :class:`WorkflowService` multiplexes many workflow submissions onto
a single discrete-event :class:`~repro.simulator.engine.Simulator` and
a single :class:`~repro.service.fleet.FleetManager`:

* each :class:`~repro.service.arrivals.WorkflowRequest` arrives as a
  simulator event at its arrival time;
* the admission policy decides once, at arrival, admit or reject; a
  budget commitment (the admission estimate) is taken at that moment,
  so the per-tenant invariant ``spent + committed <= budget`` holds no
  matter how many of a tenant's requests sit in the queue;
* admitted requests wait for one of ``max_concurrent`` slots, then run
  as an owner-tagged :class:`~repro.simulator.online.
  OnlineCloudExecutor` attached to the shared simulator and fleet —
  placement decisions use the paper's provisioning policies against
  the *live* fleet, so idle VMs rented for one tenant's workflow can
  be reused by the next (the resource-sharing WaaS model);
* billing is fleet-level and per-owner: the service, not the
  executors, prices the fleet when the event queue drains.

Everything is a deterministic function of (requests, seed inputs,
policy knobs): no wall clock, no OS randomness — the determinism tests
hash the rollup across execution backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.constraints import Constraints
from repro.core.provisioning.base import online_policy_names
from repro.core.recovery import RecoveryPolicy
from repro.errors import SchedulingError, SimulationError
from repro.experiments.result import ResultBase
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.obs.tracer import Tracer, ensure_tracer
from repro.service.admission import (
    AdmissionPolicy,
    BudgetGuardAdmission,
    RequestQueue,
    admission_policy,
)
from repro.service.arrivals import WorkflowRequest
from repro.service.fleet import FleetManager, OwnerBill, fleet_for
from repro.simulator.engine import Simulator
from repro.simulator.faults import FaultPlan, FaultRuntime
from repro.simulator.online import OnlineCloudExecutor


@dataclass
class TenantAccount:
    """Mutable per-tenant ledger the admission policies read."""

    tenant: str
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    #: workflows currently executing (fair-share reads this)
    running: int = 0
    #: estimate-ledger of finished workflows (moved from ``committed``)
    spent: float = 0.0
    #: admission estimates of admitted-but-unfinished workflows
    committed: float = 0.0


@dataclass(frozen=True)
class WorkflowReport:
    """One completed workflow through the service."""

    name: str
    tenant: str
    arrival: float
    started: float
    finished: float
    #: arrival → finish (the headline the p50/p99 summarize)
    latency: float
    #: arrival → start (queueing + admission delay)
    wait: float
    tasks: int


@dataclass(frozen=True)
class TenantReport:
    """Final per-tenant accounting."""

    tenant: str
    submitted: int
    admitted: int
    rejected: int
    completed: int
    #: estimate-ledger total (what admission charged against the budget)
    spent_estimate: float
    #: realized rent of the VMs this tenant rented (fleet bill)
    bill: Optional[OwnerBill]


@dataclass
class ServiceResult(ResultBase):
    """Outcome of one service run."""

    submitted: int
    admitted: int
    rejected: int
    completed: int
    #: final simulation time (0 for an empty run)
    makespan: float
    #: completed workflows per simulated hour
    throughput_per_hour: float
    latency_p50: float
    latency_p99: float
    #: fleet busy/paid seconds
    utilization: float
    vm_count: int
    btus: int
    rent_cost: float
    tenants: Dict[str, TenantReport]
    workflows: List[WorkflowReport] = field(default_factory=list)

    def rollup(self) -> dict:
        """JSON-stable summary — the byte-identity surface of the
        determinism tests (same seed, any backend → same bytes)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "makespan": self.makespan,
            "throughput_per_hour": self.throughput_per_hour,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "utilization": self.utilization,
            "vm_count": self.vm_count,
            "btus": self.btus,
            "rent_cost": self.rent_cost,
            "tenants": {
                name: {
                    "submitted": t.submitted,
                    "admitted": t.admitted,
                    "rejected": t.rejected,
                    "completed": t.completed,
                    "spent_estimate": t.spent_estimate,
                    "rent_cost": t.bill.rent_cost if t.bill else 0.0,
                    "vms": t.bill.vm_count if t.bill else 0,
                }
                for name, t in sorted(self.tenants.items())
            },
        }

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Headline + per-tenant tables (same as ``render_service``)."""
        from repro.experiments.service import render_service

        return render_service(self)

    def to_json(self) -> dict:
        return self.rollup()


def _nearest_rank(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0 for an empty list."""
    if not sorted_vals:
        return 0.0
    k = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[min(k, len(sorted_vals)) - 1]


class WorkflowService:
    """A multi-tenant workflow service over one shared fleet."""

    def __init__(
        self,
        platform: CloudPlatform,
        policy: str = "StartParNotExceed",
        itype: InstanceType | None = None,
        region: Region | None = None,
        admission: "str | AdmissionPolicy | None" = None,
        constraints: "Constraints | None" = None,
        max_concurrent: int | None = None,
        runtime_fn: Callable[[str, float], float] | None = None,
        fault_plan: FaultPlan | None = None,
        recovery: "str | RecoveryPolicy | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        fleet: FleetManager | None = None,
    ) -> None:
        supported = online_policy_names()
        if policy not in supported:
            raise SchedulingError(
                f"unsupported online policy {policy!r}; known: {supported}"
            )
        if max_concurrent is not None and max_concurrent < 1:
            raise SchedulingError("max_concurrent must be >= 1 (or None)")
        self.platform = platform
        self.policy = policy
        self.itype = itype or platform.itype("small")
        self.region = region or platform.default_region
        # *constraints* is the Constraints spelling of admission="budget":
        # one service-level bound capping every tenant.
        resolved = admission_policy(admission)
        if constraints is not None and not constraints.unconstrained:
            if admission is None:
                resolved = BudgetGuardAdmission(constraints=constraints)
            elif isinstance(resolved, BudgetGuardAdmission):
                resolved = BudgetGuardAdmission(
                    estimator=resolved.estimator, constraints=constraints
                )
            else:
                raise SchedulingError(
                    f"constraints ({constraints.describe()}) is the Constraints "
                    f"spelling of admission='budget'; it cannot combine with "
                    f"admission={resolved.name!r}"
                )
        self.admission = resolved
        self.max_concurrent = max_concurrent
        self.runtime_fn = runtime_fn
        # resolved here, not only in each executor, so the service's
        # billing sees an ambient platform market too
        self.fault_plan = FaultRuntime.plan_for(fault_plan, platform)
        self.recovery = recovery
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics if metrics is not None else current_metrics()
        self.sim = Simulator(tracer=tracer)
        #: the shared fleet; inject one to inspect it after the run, or
        #: to run against the scan oracle of the property tests
        self.fleet = fleet_for(fleet, self.region, platform.btu_seconds)
        self.accounts: Dict[str, TenantAccount] = {}
        #: admitted requests waiting for a slot (arrival order, and
        #: per tenant for the fair-share pick)
        self.queue = RequestQueue()
        self.running = 0
        self.rejected_requests: List[WorkflowRequest] = []
        self.reports: List[WorkflowReport] = []
        #: admission estimates by request identity, released at finish
        self._commit: Dict[int, float] = {}
        self._estimates: Dict[int, float] = {}
        self._started_at: Dict[int, float] = {}
        self._finished = False
        # streaming rollup accumulators: totals and the latency list
        # grow as workflows finish, so _finish() never re-walks the
        # reports for facts it already observed (percentiles stay
        # sort-once over the accumulated latencies)
        self._submitted = 0
        self._admitted = 0
        self._rejected = 0
        self._latencies: List[float] = []
        self._makespan = 0.0

    # ------------------------------------------------------------------
    # state the admission policies read
    # ------------------------------------------------------------------
    def account(self, tenant: str) -> TenantAccount:
        acct = self.accounts.get(tenant)
        if acct is None:
            acct = self.accounts[tenant] = TenantAccount(tenant=tenant)
        return acct

    def note_estimate(self, request: WorkflowRequest, estimate: float) -> None:
        """Called by admission policies that priced *request*; the loop
        turns the estimate into the budget commitment on admit."""
        self._estimates[id(request)] = estimate

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: WorkflowRequest) -> None:
        acct = self.account(request.tenant)
        acct.submitted += 1
        self._submitted += 1
        admitted = self.admission.admit(request, self)
        estimate = self._estimates.pop(id(request), 0.0)
        if not admitted:
            acct.rejected += 1
            self._rejected += 1
            self.rejected_requests.append(request)
            return
        acct.admitted += 1
        self._admitted += 1
        # commitment at admit (not dequeue): queued siblings must not
        # jointly overshoot the budget
        acct.committed += estimate
        self._commit[id(request)] = estimate
        self.queue.push(request)
        self._drain_queue()

    def _drain_queue(self) -> None:
        while self.queue and (
            self.max_concurrent is None or self.running < self.max_concurrent
        ):
            self._start(self.admission.take_next(self.queue, self))

    def _start(self, request: WorkflowRequest) -> None:
        acct = self.account(request.tenant)
        acct.running += 1
        self.running += 1
        self._started_at[id(request)] = self.sim.now
        executor = OnlineCloudExecutor(
            request.workflow,
            self.platform,
            policy=self.policy,
            itype=self.itype,
            region=self.region,
            runtime_fn=self.runtime_fn,
            fault_plan=self.fault_plan,
            recovery=self.recovery,
            metrics=None,
            sim=self.sim,
            fleet=self.fleet,
            owner=request.tenant,
            on_complete=lambda r=request: self._on_workflow_done(r),
        )
        executor.start()

    def _on_workflow_done(self, request: WorkflowRequest) -> None:
        acct = self.account(request.tenant)
        acct.running -= 1
        acct.completed += 1
        self.running -= 1
        estimate = self._commit.pop(id(request), 0.0)
        acct.committed -= estimate
        acct.spent += estimate
        started = self._started_at.pop(id(request))
        now = self.sim.now
        latency = now - request.arrival
        self.reports.append(
            WorkflowReport(
                name=request.name,
                tenant=request.tenant,
                arrival=request.arrival,
                started=started,
                finished=now,
                latency=latency,
                wait=started - request.arrival,
                tasks=len(request.workflow.task_ids),
            )
        )
        self._latencies.append(latency)
        if now > self._makespan:
            self._makespan = now
        self._drain_queue()

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[WorkflowRequest]) -> None:
        """Schedule every request's arrival event."""
        if self._finished:
            raise SimulationError("service already ran; build a new one")
        for request in requests:
            self.sim.at(
                request.arrival,
                lambda r=request: self._on_arrival(r),
                f"arrive:{request.name}",
            )

    def run(self, requests: Sequence[WorkflowRequest] = ()) -> ServiceResult:
        """Process *requests* (plus anything already submitted) to
        completion and price the fleet."""
        if requests:
            self.submit(requests)
        with self.tracer.span(
            "service.run", cat="service", policy=self.policy,
            admission=self.admission.name,
        ):
            self.sim.run()
        return self._finish()

    def _finish(self) -> ServiceResult:
        self._finished = True
        if self.queue or self.running:
            raise SimulationError(
                f"service wedged: {len(self.queue)} queued, "
                f"{self.running} running after the event queue drained"
            )
        if self.sim.pending_events:
            raise SimulationError("event queue not drained")  # pragma: no cover
        billing = self.platform.billing
        market = self.fault_plan.market if self.fault_plan is not None else None
        seed = self.fault_plan.seed if self.fault_plan is not None else 0
        # one compacted roster pass: conservation check + per-owner
        # bills + utilization, instead of three full fleet walks
        roll = self.fleet.finalize(billing, self.region, market=market, seed=seed)
        latencies = sorted(self._latencies)
        makespan = self._makespan
        completed = len(self.reports)
        throughput = completed / (makespan / 3600.0) if makespan > 0 else 0.0
        tenants: Dict[str, TenantReport] = {}
        for name in sorted(self.accounts):
            acct = self.accounts[name]
            tenants[name] = TenantReport(
                tenant=name,
                submitted=acct.submitted,
                admitted=acct.admitted,
                rejected=acct.rejected,
                completed=acct.completed,
                spent_estimate=acct.spent,
                bill=roll.bills.get(name),
            )
        result = ServiceResult(
            submitted=self._submitted,
            admitted=self._admitted,
            rejected=self._rejected,
            completed=completed,
            makespan=makespan,
            throughput_per_hour=throughput,
            latency_p50=_nearest_rank(latencies, 50.0),
            latency_p99=_nearest_rank(latencies, 99.0),
            utilization=roll.utilization,
            vm_count=len(self.fleet.vms),
            btus=roll.btus,
            rent_cost=roll.rent_cost,
            tenants=tenants,
            workflows=sorted(
                self.reports, key=lambda r: (r.finished, r.arrival, r.name)
            ),
        )
        self._emit_metrics(result)
        return result

    def _emit_metrics(self, result: ServiceResult) -> None:
        if self.metrics is None:
            return
        m = self.metrics
        m.inc("service.runs")
        m.inc("service.submitted", result.submitted)
        m.inc("service.admitted", result.admitted)
        m.inc("service.rejected", result.rejected)
        m.inc("service.completed", result.completed)
        m.inc("service.vms_rented", result.vm_count)
        m.inc("service.btus_billed", result.btus)
        m.inc("sim.events_processed", self.sim.processed_events)
        m.inc("sim.simulated_seconds", result.makespan)


def run_service(
    requests: Sequence[WorkflowRequest],
    platform: CloudPlatform,
    policy: str = "StartParNotExceed",
    itype: InstanceType | None = None,
    region: Region | None = None,
    admission: "str | AdmissionPolicy | None" = None,
    constraints: "Constraints | None" = None,
    max_concurrent: int | None = None,
    runtime_fn: Callable[[str, float], float] | None = None,
    fault_plan: FaultPlan | None = None,
    recovery: "str | RecoveryPolicy | None" = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    fleet: "FleetManager | None" = None,
) -> ServiceResult:
    """Convenience wrapper: build a service and run one request stream.

    *constraints* is the :class:`~repro.core.constraints.Constraints`
    spelling of ``admission="budget"``: a service-level budget bound
    capping every tenant."""
    return WorkflowService(
        platform,
        policy=policy,
        itype=itype,
        region=region,
        admission=admission,
        constraints=constraints,
        max_concurrent=max_concurrent,
        runtime_fn=runtime_fn,
        fault_plan=fault_plan,
        recovery=recovery,
        tracer=tracer,
        metrics=metrics,
        fleet=fleet,
    ).run(requests)
