"""Unit tests of the arrival-stream generators and admission policies."""

from __future__ import annotations

import random

import pytest

from repro.errors import ExperimentError
from repro.service.admission import (
    ADMISSION_POLICIES,
    BudgetGuardAdmission,
    FairShareAdmission,
    FifoAdmission,
    RequestQueue,
    admission_policy,
)
from repro.service.arrivals import (
    WorkflowRequest,
    poisson_arrivals,
    trace_arrivals,
)
from repro.service.loop import WorkflowService


class TestArrivals:
    def test_poisson_stream_is_seed_deterministic(self, diamond, chain3):
        kwargs = dict(count=20, tenants=4, mean_interarrival=100.0, seed=7)
        a = poisson_arrivals([diamond, chain3], **kwargs)
        b = poisson_arrivals([diamond, chain3], **kwargs)
        assert [(r.tenant, r.name, r.arrival) for r in a] == [
            (r.tenant, r.name, r.arrival) for r in b
        ]
        c = poisson_arrivals([diamond, chain3], **{**kwargs, "seed": 8})
        assert [r.arrival for r in a] != [r.arrival for r in c]

    def test_poisson_stream_sorted_and_named(self, diamond):
        stream = poisson_arrivals(
            diamond, count=10, tenants=3, mean_interarrival=50.0, seed=1
        )
        arrivals = [r.arrival for r in stream]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert len({r.name for r in stream}) == 10  # unique names
        assert all(r.tenant.startswith("tenant") for r in stream)

    def test_poisson_validation(self, diamond):
        with pytest.raises(ExperimentError, match="count"):
            poisson_arrivals(diamond, count=0, tenants=1, mean_interarrival=1.0)
        with pytest.raises(ExperimentError, match="tenants"):
            poisson_arrivals(diamond, count=1, tenants=0, mean_interarrival=1.0)
        with pytest.raises(ExperimentError, match="at least one workflow"):
            poisson_arrivals([], count=1, tenants=1, mean_interarrival=1.0)
        with pytest.raises(ExperimentError, match="mean_interarrival"):
            poisson_arrivals(diamond, count=1, tenants=1, mean_interarrival=-1.0)

    def test_trace_arrivals_parses_rows(self, diamond, chain3):
        catalog = {"diamond": diamond, "chain3": chain3}
        stream = trace_arrivals(
            [
                ("bob", "chain3", 50.0),
                ("alice", "diamond", 0.0, 12.5, 7200.0),
            ],
            catalog,
        )
        assert [r.tenant for r in stream] == ["alice", "bob"]
        assert stream[0].budget == 12.5 and stream[0].deadline == 7200.0
        assert stream[1].budget == float("inf")

    def test_trace_arrivals_rejects_bad_rows(self, diamond):
        with pytest.raises(ExperimentError, match="unknown workflow"):
            trace_arrivals([("t", "nope", 0.0)], {"diamond": diamond})
        with pytest.raises(ExperimentError, match="needs"):
            trace_arrivals([("t",)], {"diamond": diamond})
        with pytest.raises(ExperimentError, match="empty trace"):
            trace_arrivals([], {"diamond": diamond})

    def test_request_validation(self, diamond):
        with pytest.raises(ExperimentError, match="negative arrival"):
            WorkflowRequest(tenant="t", workflow=diamond, arrival=-1.0)
        with pytest.raises(ExperimentError, match="budget"):
            WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0, budget=0)
        with pytest.raises(ExperimentError, match="tenant"):
            WorkflowRequest(tenant="", workflow=diamond, arrival=0.0)

    # non-finite inputs are refused at construction, not mid-run
    def test_request_rejects_nan_arrival(self, diamond):
        with pytest.raises(ExperimentError, match="arrival time must be finite"):
            WorkflowRequest(tenant="t", workflow=diamond, arrival=float("nan"))

    def test_request_rejects_infinite_arrival(self, diamond):
        with pytest.raises(ExperimentError, match="arrival time must be finite"):
            WorkflowRequest(tenant="t", workflow=diamond, arrival=float("inf"))

    def test_request_rejects_nan_budget(self, diamond):
        with pytest.raises(ExperimentError, match="budget"):
            WorkflowRequest(
                tenant="t", workflow=diamond, arrival=0.0, budget=float("nan")
            )

    def test_request_rejects_nan_deadline(self, diamond):
        with pytest.raises(ExperimentError, match="deadline"):
            WorkflowRequest(
                tenant="t", workflow=diamond, arrival=0.0, deadline=float("nan")
            )

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_poisson_rejects_non_finite_interarrival(self, diamond, gap):
        with pytest.raises(ExperimentError, match="mean_interarrival"):
            poisson_arrivals(diamond, count=3, tenants=1, mean_interarrival=gap)


class TestAdmissionResolver:
    def test_registry_and_resolver(self):
        assert set(ADMISSION_POLICIES) == {"fifo", "fair", "budget"}
        assert isinstance(admission_policy(None), FifoAdmission)
        assert isinstance(admission_policy("FAIR"), FairShareAdmission)
        assert isinstance(admission_policy("budget"), BudgetGuardAdmission)
        instance = FairShareAdmission()
        assert admission_policy(instance) is instance

    def test_unknown_name_suggests(self):
        with pytest.raises(ExperimentError, match="fifo"):
            admission_policy("fifoo")


class TestFairShare:
    def test_select_next_prefers_idle_tenant(self, platform, diamond):
        service = WorkflowService(platform, admission="fair")
        busy, idle = service.account("busy"), service.account("idle")
        busy.running, busy.admitted = 2, 5
        idle.running, idle.admitted = 0, 1
        queue = [
            WorkflowRequest(tenant="busy", workflow=diamond, arrival=0.0),
            WorkflowRequest(tenant="idle", workflow=diamond, arrival=1.0),
        ]
        assert service.admission.select_next(queue, service) == 1

    def test_ties_break_by_arrival_order(self, platform, diamond):
        service = WorkflowService(platform, admission="fair")
        queue = [
            WorkflowRequest(tenant="a", workflow=diamond, arrival=0.0),
            WorkflowRequest(tenant="b", workflow=diamond, arrival=1.0),
        ]
        assert service.admission.select_next(queue, service) == 0


class TestRequestQueue:
    """The service queue: arrival order overall and per tenant."""

    def _requests(self, diamond, tenants):
        return [
            WorkflowRequest(tenant=t, workflow=diamond, arrival=float(i), name=f"r{i}")
            for i, t in enumerate(tenants)
        ]

    def test_sequence_view_and_out_of_turn_pops(self, diamond):
        queue = RequestQueue()
        reqs = self._requests(diamond, "abacbca")
        for r in reqs:
            queue.push(r)
        assert list(queue) == reqs and len(queue) == 7
        assert queue.pop_tenant("c") is reqs[3]
        assert queue.pop(2) is reqs[2]  # r2 (tenant a), counting past r3
        assert queue[0] is reqs[0] and queue[2] is reqs[4]
        assert [req for _, req in queue.heads()] == [reqs[0], reqs[1], reqs[5]]
        assert queue.pop() is reqs[0]
        assert list(queue) == [reqs[1], reqs[4], reqs[5], reqs[6]]
        while queue:
            queue.pop()
        assert len(queue) == 0 and list(queue.heads()) == []

    @pytest.mark.parametrize("seed", [1, 7, 2013])
    def test_fair_take_next_matches_select_next(self, platform, diamond, seed):
        """The per-tenant pick equals the argmin over the whole queue,
        through random arrivals, starts and account changes."""
        rng = random.Random(seed)
        service = WorkflowService(platform, admission="fair")
        policy = service.admission
        queue, shadow = RequestQueue(), []
        for i in range(400):
            if rng.random() < 0.55 or not shadow:
                tenant = f"t{rng.randrange(6)}"
                acct = service.account(tenant)
                acct.admitted += 1
                r = WorkflowRequest(tenant=tenant, workflow=diamond, arrival=float(i))
                queue.push(r)
                shadow.append(r)
            else:
                for acct in service.accounts.values():
                    acct.running = rng.randrange(3)
                want = shadow.pop(policy.select_next(shadow, service))
                assert policy.take_next(queue, service) is want
            assert list(queue) == shadow


class TestBudgetGuard:
    def test_unbounded_budget_skips_estimation(self, platform, diamond):
        calls = []

        def estimator(request, service):
            calls.append(request)
            return 1.0

        service = WorkflowService(
            platform, admission=BudgetGuardAdmission(estimator)
        )
        request = WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0)
        assert service.admission.admit(request, service)
        assert calls == []

    def test_rejects_once_committed_plus_estimate_overshoots(
        self, platform, diamond
    ):
        service = WorkflowService(
            platform, admission=BudgetGuardAdmission(lambda r, s: 1.0)
        )
        acct = service.account("t")
        acct.spent, acct.committed = 1.5, 1.0

        def req():
            return WorkflowRequest(
                tenant="t", workflow=diamond, arrival=0.0, budget=3.0
            )

        assert not service.admission.admit(req(), service)
        acct.committed = 0.4  # 1.5 + 0.4 + 1.0 <= 3.0
        assert service.admission.admit(req(), service)


class TestConstraintsSpelling:
    """--tenant-budget / per-request budgets / Constraints are one object."""

    def test_request_constraints_property(self, diamond):
        from repro.core.constraints import Constraints

        r = WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0, budget=3.0)
        assert r.constraints == Constraints(budget=3.0)
        unbounded = WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0)
        assert unbounded.constraints.unconstrained

    def test_guard_accepts_constraints_object(self, platform, diamond):
        from repro.core.constraints import Constraints

        guard = BudgetGuardAdmission(
            lambda r, s: 1.0, constraints=Constraints(budget=3.0)
        )
        service = WorkflowService(platform, admission=guard)
        acct = service.account("t")
        acct.spent, acct.committed = 1.5, 1.0
        # requests carry no budget of their own; the service-level
        # Constraints bound decides, same arithmetic as the float path
        request = WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0)
        assert not service.admission.admit(request, service)
        acct.committed = 0.4
        assert service.admission.admit(request, service)

    def test_run_service_constraints_param_builds_budget_guard(self, platform):
        from repro.core.constraints import Constraints

        service = WorkflowService(
            platform, constraints=Constraints(budget=2.0)
        )
        assert isinstance(service.admission, BudgetGuardAdmission)
        assert service.admission.constraints == Constraints(budget=2.0)

    def test_constraints_conflict_with_non_budget_admission(self, platform):
        from repro.core.constraints import Constraints
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match="admission='budget'"):
            WorkflowService(
                platform, admission="fair", constraints=Constraints(budget=2.0)
            )

    def test_poisson_arrivals_accepts_constraints_budget(self, diamond):
        from repro.core.constraints import Constraints

        kwargs = dict(count=5, tenants=2, mean_interarrival=60.0, seed=3)
        via_float = poisson_arrivals(diamond, budget=2.5, **kwargs)
        via_constraints = poisson_arrivals(
            diamond, budget=Constraints(budget=2.5), **kwargs
        )
        assert [r.budget for r in via_constraints] == [
            r.budget for r in via_float
        ]


def test_loop_rejects_bad_knobs(platform):
    from repro.errors import SchedulingError

    with pytest.raises(SchedulingError, match="unsupported online policy"):
        WorkflowService(platform, policy="Heft")
    with pytest.raises(SchedulingError, match="max_concurrent"):
        WorkflowService(platform, max_concurrent=0)
