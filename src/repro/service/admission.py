"""Admission and queueing policies for the service loop.

When a :class:`~repro.service.arrivals.WorkflowRequest` arrives (or a
concurrency slot frees up), an admission policy answers two questions:

* :meth:`AdmissionPolicy.admit` — may this request run at all?  A
  ``False`` is a *reject*: the workflow never executes (the
  hard-constraint framing of Thai et al., arXiv:1507.05470 — constrained
  services refuse work rather than kill it mid-flight).
* :meth:`AdmissionPolicy.take_next` — which queued request starts
  when a slot opens?  The service keeps its queue as a
  :class:`RequestQueue`: arrival order overall and per tenant.  The
  default answers through :meth:`AdmissionPolicy.select_next`, an index
  into the arrival-ordered queue.

Policies are deterministic functions of service state, so a seeded
service run admits, queues and rejects identically on every backend.
"""

from __future__ import annotations

import abc
from collections import deque
from collections.abc import Sequence
from typing import Callable, Deque, Dict, Iterator, Optional, Tuple

from repro.core.constraints import Constraints
from repro.errors import ExperimentError
from repro.service.arrivals import WorkflowRequest
from repro.util.suggest import unknown_name_message
from repro.util.totals import left_sum


class RequestQueue(Sequence):
    """Admitted requests waiting for a slot, in arrival order.

    Besides the arrival-ordered sequence view (what
    :meth:`AdmissionPolicy.select_next` indexes), the queue keeps one
    arrival-ordered deque per tenant with queued work, so a FIFO pick
    costs O(1) and a per-tenant pick O(tenants with queued work),
    however long the queue grows.  A request taken out of turn stays in
    the global order as a tombstone until it reaches the head.
    """

    def __init__(self) -> None:
        self._next_seq = 0
        #: queued entries (and tombstones) as (arrival seq, request)
        self._order: Deque[Tuple[int, WorkflowRequest]] = deque()
        #: tenant -> its queued entries; tenants with none are dropped
        self._tenants: Dict[str, Deque[Tuple[int, WorkflowRequest]]] = {}
        #: seqs of tombstones in ``_order``
        self._taken: set = set()

    def push(self, request: WorkflowRequest) -> None:
        entry = (self._next_seq, request)
        self._next_seq += 1
        self._order.append(entry)
        queued = self._tenants.get(request.tenant)
        if queued is None:
            queued = self._tenants[request.tenant] = deque()
        queued.append(entry)

    def __len__(self) -> int:
        return len(self._order) - len(self._taken)

    def __iter__(self) -> Iterator[WorkflowRequest]:
        taken = self._taken
        return (request for seq, request in self._order if seq not in taken)

    def __getitem__(self, index):
        if index == 0:
            self._trim()
            if self._order:
                return self._order[0][1]
        return list(self)[index]

    def heads(self) -> Iterator[Tuple[int, WorkflowRequest]]:
        """Each queued tenant's earliest ``(arrival seq, request)``."""
        return (queued[0] for queued in self._tenants.values())

    def pop(self, index: int = 0) -> WorkflowRequest:
        """Remove and return the *index*-th request in arrival order."""
        self._trim()
        if index == 0:
            seq, request = self._order.popleft()
        else:
            taken = self._taken
            seq, request = [e for e in self._order if e[0] not in taken][index]
            taken.add(seq)
        self._unlink(seq, request.tenant)
        return request

    def pop_tenant(self, tenant: str) -> WorkflowRequest:
        """Remove and return *tenant*'s earliest queued request."""
        seq, request = self._tenants[tenant][0]
        self._unlink(seq, tenant)
        self._taken.add(seq)
        self._trim()
        return request

    def _unlink(self, seq: int, tenant: str) -> None:
        queued = self._tenants[tenant]
        for i, entry in enumerate(queued):
            if entry[0] == seq:
                del queued[i]
                break
        if not queued:
            del self._tenants[tenant]

    def _trim(self) -> None:
        """Drop tombstones from the head of the global order."""
        order, taken = self._order, self._taken
        while order and order[0][0] in taken:
            taken.discard(order.popleft()[0])


class AdmissionPolicy(abc.ABC):
    """Strategy deciding admit/queue/reject per submission."""

    #: registry key and report label
    name: str = "base"

    def admit(self, request: WorkflowRequest, service) -> bool:
        """May *request* run (now or later)?  Decided once, at arrival;
        the loop takes any noted estimate as a budget commitment the
        moment this returns ``True``, so queued requests of one tenant
        can never jointly overshoot its budget."""
        return True

    def select_next(self, queue: Sequence[WorkflowRequest], service) -> int:
        """Index of the queued request to start next (queue is in
        arrival order).  Default: FIFO."""
        return 0

    def take_next(self, queue: RequestQueue, service) -> WorkflowRequest:
        """Remove and return the request to start next.  The default
        pops the :meth:`select_next` index; a policy may override this
        to use the queue's per-tenant view instead."""
        return queue.pop(self.select_next(queue, service))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class FifoAdmission(AdmissionPolicy):
    """Admit everything; start queued requests strictly in arrival
    order.  The throughput-oriented baseline."""

    name = "fifo"


class FairShareAdmission(AdmissionPolicy):
    """Admit everything; when a slot frees, pick the queued request of
    the tenant with the fewest workflows currently running (ties: fewer
    admitted so far, then arrival order).

    This is per-tenant fair-share queueing: one tenant submitting a
    burst cannot starve the others — the WaaS fairness lever of Hilman
    et al. (arXiv:1903.01113).
    """

    name = "fair"

    def select_next(self, queue: Sequence[WorkflowRequest], service) -> int:
        # Every queued request of one tenant shares the same
        # (running, admitted) pair, so the argmin over the queue equals
        # the argmin over each tenant's *first* occurrence: one account
        # lookup per distinct tenant instead of per queued entry.
        # Strict < keeps the earliest index on cross-tenant ties,
        # matching min(..., key=(running, admitted, i)) exactly.
        best_i = 0
        best_key = None
        seen = set()
        for i, request in enumerate(queue):
            tenant = request.tenant
            if tenant in seen:
                continue
            seen.add(tenant)
            acct = service.account(tenant)
            key = (acct.running, acct.admitted)
            if best_key is None or key < best_key:
                best_key, best_i = key, i
        return best_i

    def take_next(self, queue: RequestQueue, service) -> WorkflowRequest:
        # The same argmin read off the per-tenant heads: arrival seqs
        # order like queue indices, so (running, admitted, seq) picks
        # exactly the request select_next would, in O(queued tenants).
        best_key = None
        best_tenant = ""
        for seq, request in queue.heads():
            acct = service.account(request.tenant)
            key = (acct.running, acct.admitted, seq)
            if best_key is None or key < best_key:
                best_key, best_tenant = key, request.tenant
        return queue.pop_tenant(best_tenant)


def default_estimator(request: WorkflowRequest, service) -> float:
    """Conservative-by-construction rent estimate for one request.

    The price of the request's workflow under the ``OneVMperTask``
    provisioning policy on the *service's* instance type and region.
    With no cross-VM transfers this equals the realized online cost of
    the workflow exactly (each task pays its own BTUs); with transfers
    the realized cost can exceed it, because online staging happens
    after placement.

    Every task owns its VM, so the plan has a closed form, computed in
    one topological pass: a task is ready at its latest ``predecessor
    finish + cross-VM transfer`` (0.0 for an entry task), plus the boot
    time on a platform that is not prebooted, and its VM bills
    ``btus(end - (start - boot_seconds))``.  These are the float
    operations of a static ``ScheduleBuilder`` run frozen into a
    ``Schedule`` and priced by ``Schedule.rent_cost``, in the same
    order, so the estimate equals that price bit for bit (the builder
    version is the oracle of ``tests/service/test_estimate_oracle.py``).
    """
    workflow = request.workflow
    workflow.validate()
    platform = service.platform
    itype, region = service.itype, service.region
    runtime = platform.runtime
    transfer = platform.transfer_time
    btus = platform.billing.btus
    boot = platform.boot_seconds
    cold = not platform.prebooted
    preds = workflow.pred_map()
    edge_gb = workflow.edge_data_map()
    task = workflow.task
    finish: Dict[str, float] = {}
    paid = []
    for tid in workflow.topological_order():
        start = 0.0
        for pred in preds[tid]:
            cand = finish[pred] + transfer(
                edge_gb[pred, tid],
                itype,
                itype,
                same_vm=False,
                src_region=region,
                dst_region=region,
            )
            if cand > start:
                start = cand
        if cold:
            start += boot
        end = finish[tid] = start + runtime(task(tid), itype)
        # a frozen Schedule records the placement end as
        # start + (finish - start)
        end = start + (end - start)
        paid.append(btus(end - (start - boot)))
    price = region.price(itype)
    return left_sum(b * price for b in paid)


class BudgetGuardAdmission(AdmissionPolicy):
    """Reject a request when its tenant's budget cannot cover it.

    A tenant account carries ``spent`` (realized rent of finished
    work, from the fleet bill) plus ``committed`` (estimates of its
    still-running workflows); a request is admitted only while
    ``spent + committed + estimate <= budget``.  Queue order stays
    FIFO.  Estimates come from *estimator* (default:
    :func:`default_estimator`); when estimates upper-bound realized
    cost, per-tenant spend provably never exceeds the budget.

    The bound itself is a :class:`~repro.core.constraints.Constraints`
    budget: pass *constraints* to cap every tenant by one service-level
    object, or leave it ``None`` to read each request's own bounds
    (``WorkflowRequest.constraints``, the per-request ``budget`` field's
    Constraints spelling).  Judging goes through
    :meth:`Constraints.feasible`, the same verdict the metric layer and
    the autotuner use.
    """

    name = "budget"

    def __init__(
        self,
        estimator: Callable[[WorkflowRequest, object], float] | None = None,
        constraints: "Constraints | float | None" = None,
    ) -> None:
        self.estimator = estimator or default_estimator
        if constraints is not None and not isinstance(constraints, Constraints):
            constraints = Constraints(budget=float(constraints))
        self.constraints: Optional[Constraints] = constraints

    def admit(self, request: WorkflowRequest, service) -> bool:
        limits = (
            self.constraints if self.constraints is not None else request.constraints
        )
        if limits.budget is None:
            return True
        acct = service.account(request.tenant)
        estimate = self.estimator(request, service)
        projected = acct.spent + acct.committed + estimate
        # the 1e-9 slack absorbs float accumulation noise in the ledger
        if not limits.feasible(cost=projected - 1e-9):
            return False
        # stash the estimate: the loop commits it against the budget on
        # admit, without pricing the workflow a second time
        service.note_estimate(request, estimate)
        return True


#: registry: name -> zero-argument factory
ADMISSION_POLICIES: Dict[str, Callable[[], AdmissionPolicy]] = {
    "fifo": FifoAdmission,
    "fair": FairShareAdmission,
    "budget": BudgetGuardAdmission,
}


def admission_policy(policy: "str | AdmissionPolicy | None") -> AdmissionPolicy:
    """Resolve a policy instance from a name, instance or ``None``
    (FIFO), with a did-you-mean error on unknown names."""
    if policy is None:
        return FifoAdmission()
    if isinstance(policy, AdmissionPolicy):
        return policy
    for key, factory in ADMISSION_POLICIES.items():
        if key.lower() == str(policy).lower():
            return factory()
    raise ExperimentError(
        unknown_name_message("admission policy", str(policy), ADMISSION_POLICIES)
    )
