"""Constraints: the library-wide spelling of an acceptable outcome."""

import pytest
from hypothesis import given, strategies as st

from repro.core.constraints import CONSTRAINT_NAMES, Constraints, ConstraintViolation
from repro.errors import ExperimentError

_limit = st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e6))
_actual = st.floats(min_value=0.0, max_value=2e6)


class TestValidation:
    def test_default_is_unconstrained(self):
        c = Constraints()
        assert c.unconstrained
        assert c.feasible(makespan=1e12, cost=1e12, vm_count=10**9)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(deadline=0), dict(deadline=-5), dict(budget=0), dict(max_vms=0)],
    )
    def test_nonpositive_bounds_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            Constraints(**kwargs)

    @pytest.mark.parametrize("axis", ["deadline", "budget", "max_vms"])
    def test_nan_bounds_rejected(self, axis):
        with pytest.raises(ExperimentError, match=axis):
            Constraints(**{axis: float("nan")})

    def test_from_json_unknown_key_suggests(self):
        with pytest.raises(ExperimentError, match="deadline"):
            Constraints.from_json({"deadlin": 100})

    def test_json_round_trip(self):
        c = Constraints(deadline=3600, budget=12.5)
        assert Constraints.from_json(c.to_json()) == c


class TestCheck:
    def test_violations_in_reporting_order(self):
        c = Constraints(deadline=10, budget=1, max_vms=2)
        violations = c.check(makespan=20, cost=5, vm_count=9)
        assert [v.constraint for v in violations] == list(CONSTRAINT_NAMES)

    def test_unsupplied_axes_are_skipped(self):
        c = Constraints(deadline=10, budget=1)
        assert c.check(cost=0.5) == ()
        assert not c.feasible(makespan=11)

    def test_violation_reports_excess(self):
        (v,) = Constraints(deadline=100).check(makespan=123)
        assert v == ConstraintViolation("deadline", 100, 123)
        assert v.excess == 23
        assert "deadline: 123s > 100s limit (+23)" == str(v)

    def test_describe(self):
        assert Constraints().describe() == "unconstrained"
        assert (
            Constraints(deadline=3600, budget=12).describe()
            == "deadline<=3600s, budget<=$12"
        )

    @given(deadline=_limit, budget=_limit, makespan=_actual, cost=_actual)
    def test_feasible_iff_every_bound_holds(self, deadline, budget, makespan, cost):
        c = Constraints(deadline=deadline, budget=budget)
        expected = (deadline is None or makespan <= deadline) and (
            budget is None or cost <= budget
        )
        assert c.feasible(makespan=makespan, cost=cost) == expected
        for v in c.check(makespan=makespan, cost=cost):
            assert v.excess > 0


class TestScheduleIntegration:
    def test_check_schedule_and_metrics_verdict(self):
        import repro.api as api

        platform = api.CloudPlatform.ec2()
        sched = api.reference_schedule(api.sequential(), platform)
        loose = Constraints(deadline=sched.makespan + 1)
        tight = Constraints(deadline=max(sched.makespan / 2, 0.001))
        assert sched.check_constraints(loose) == ()
        assert sched.check_constraints(tight)

        m = api.evaluate(sched, constraints=tight)
        assert m.feasible is False
        assert "deadline" in m.violation_summary()
        assert api.evaluate(sched, constraints=loose).feasible is True
        assert api.evaluate(sched).feasible is None
