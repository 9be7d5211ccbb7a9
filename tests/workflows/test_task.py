"""Tests for repro.workflows.task."""

import math

import pytest

from repro.errors import WorkflowError
from repro.workflows.task import Task


class TestTaskValidation:
    def test_valid(self):
        t = Task("t1", 100.0, "map")
        assert t.id == "t1" and t.work == 100.0 and t.category == "map"

    def test_empty_id_rejected(self):
        with pytest.raises(WorkflowError):
            Task("", 1.0)

    def test_non_string_id_rejected(self):
        with pytest.raises(WorkflowError):
            Task(3, 1.0)  # type: ignore[arg-type]

    @pytest.mark.parametrize("work", [0.0, -1.0, math.nan])
    def test_non_positive_work_rejected(self, work):
        with pytest.raises(WorkflowError):
            Task("t", work)

    @pytest.mark.parametrize("work", [math.inf, -math.inf])
    def test_non_finite_work_rejected(self, work):
        with pytest.raises(WorkflowError, match="finite"):
            Task("t", work)

    def test_frozen(self):
        t = Task("t", 1.0)
        with pytest.raises(AttributeError):
            t.work = 2.0  # type: ignore[misc]


class TestTaskBehaviour:
    def test_with_work(self):
        t = Task("t", 1.0, "cat", {"k": 1})
        u = t.with_work(5.0)
        assert u.work == 5.0 and u.id == "t" and u.category == "cat"
        assert u.attrs == {"k": 1}
        assert t.work == 1.0  # original untouched

    def test_runtime_on_speedup(self):
        t = Task("t", 2700.0)
        assert t.runtime_on(2.7) == pytest.approx(1000.0)
        assert t.runtime_on(1.0) == 2700.0

    def test_runtime_on_invalid_speedup(self):
        with pytest.raises(WorkflowError):
            Task("t", 1.0).runtime_on(0.0)
