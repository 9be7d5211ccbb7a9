"""Tests for the Workflow DAG model."""

import pytest

from repro.errors import WorkflowError
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


def _simple() -> Workflow:
    wf = Workflow("w")
    for tid, work in (("a", 10.0), ("b", 20.0), ("c", 30.0), ("d", 5.0)):
        wf.add_task(Task(tid, work))
    wf.add_dependency("a", "b", 1.0)
    wf.add_dependency("a", "c", 2.0)
    wf.add_dependency("b", "d")
    wf.add_dependency("c", "d")
    return wf.validate()


class TestConstruction:
    def test_duplicate_task_rejected(self):
        wf = Workflow("w")
        wf.add_task(Task("a", 1.0))
        with pytest.raises(WorkflowError):
            wf.add_task(Task("a", 2.0))

    def test_dependency_unknown_task(self):
        wf = Workflow("w")
        wf.add_task(Task("a", 1.0))
        with pytest.raises(WorkflowError):
            wf.add_dependency("a", "zzz")

    def test_self_dependency_rejected(self):
        wf = Workflow("w")
        wf.add_task(Task("a", 1.0))
        with pytest.raises(WorkflowError):
            wf.add_dependency("a", "a")

    def test_negative_data_rejected(self):
        wf = Workflow("w")
        wf.add_task(Task("a", 1.0))
        wf.add_task(Task("b", 1.0))
        with pytest.raises(WorkflowError):
            wf.add_dependency("a", "b", -0.1)

    @pytest.mark.parametrize("gb", [float("nan"), float("inf")])
    def test_non_finite_data_rejected(self, gb):
        wf = Workflow("w")
        wf.add_task(Task("a", 1.0))
        wf.add_task(Task("b", 1.0))
        with pytest.raises(WorkflowError, match="non-finite.*'a'->'b'"):
            wf.add_dependency("a", "b", gb)

    @pytest.mark.parametrize("gb", [float("nan"), float("inf")])
    def test_non_finite_data_rejected_in_bulk(self, gb):
        wf = Workflow("w")
        wf.add_tasks(Task(t, 1.0) for t in "abc")
        with pytest.raises(WorkflowError, match="non-finite.*'b'->'c'"):
            wf.add_dependencies([("a", "b", 1.0), ("b", "c", gb)])
        assert wf.edges() == []  # nothing of the refused batch is kept

    def test_cycle_detected(self):
        wf = Workflow("w")
        for t in "abc":
            wf.add_task(Task(t, 1.0))
        wf.add_dependency("a", "b")
        wf.add_dependency("b", "c")
        wf.add_dependency("c", "a")
        with pytest.raises(WorkflowError, match="cycle"):
            wf.validate()

    def test_cycle_error_names_the_stuck_tasks(self):
        wf = Workflow("w")
        for t in "abcd":
            wf.add_task(Task(t, 1.0))
        wf.add_dependencies([("a", "b", 0.0), ("b", "c", 0.0), ("c", "b", 0.0)])
        wf.add_dependency("c", "d")
        with pytest.raises(WorkflowError, match=r"3 task\(s\).*'b', 'c', 'd'"):
            wf.validate()

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("w").validate()

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("")


class TestQueries:
    def test_len_contains_iter(self):
        wf = _simple()
        assert len(wf) == 4
        assert "a" in wf and "zzz" not in wf
        assert {t.id for t in wf} == {"a", "b", "c", "d"}

    def test_entry_exit(self):
        wf = _simple()
        assert wf.entry_tasks() == ["a"]
        assert wf.exit_tasks() == ["d"]

    def test_predecessors_successors(self):
        wf = _simple()
        assert wf.predecessors("d") == ["b", "c"]
        assert wf.successors("a") == ["b", "c"]

    def test_data_gb(self):
        wf = _simple()
        assert wf.data_gb("a", "b") == 1.0
        assert wf.data_gb("b", "d") == 0.0
        with pytest.raises(WorkflowError):
            wf.data_gb("a", "d")

    def test_unknown_task_lookup(self):
        with pytest.raises(WorkflowError):
            _simple().task("nope")

    def test_topological_order(self):
        wf = _simple()
        order = wf.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_levels(self):
        wf = _simple()
        assert wf.levels() == [["a"], ["b", "c"], ["d"]]
        assert wf.level_of() == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_max_parallelism(self):
        assert _simple().max_parallelism() == 2

    def test_critical_path_default_weights(self):
        wf = _simple()
        path, length = wf.critical_path()
        assert path == ["a", "c", "d"]
        assert length == 45.0

    def test_critical_path_custom_weights(self):
        wf = _simple()
        # make b the heavy branch
        path, length = wf.critical_path(exec_time=lambda t: {"a": 1, "b": 100, "c": 1, "d": 1}[t])
        assert path == ["a", "b", "d"]
        assert length == 102.0

    def test_critical_path_with_transfers(self):
        wf = _simple()
        path, length = wf.critical_path(
            exec_time=lambda t: 10.0, transfer_time=lambda u, v: 100.0 if (u, v) == ("a", "b") else 0.0
        )
        assert path == ["a", "b", "d"]
        assert length == 130.0

    def test_total_work(self):
        assert _simple().total_work() == 65.0

    def test_ancestors_descendants(self):
        wf = _simple()
        assert wf.ancestors("d") == ["a", "b", "c"]
        assert wf.descendants("a") == ["b", "c", "d"]

    def test_summary_keys(self):
        s = _simple().summary()
        assert s["tasks"] == 4 and s["edges"] == 4
        assert s["max_parallelism"] == 2


class TestTransformation:
    def test_with_works(self):
        wf = _simple()
        new = wf.with_works({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        assert new.task("b").work == 2.0
        assert wf.task("b").work == 20.0
        assert new.edges() == wf.edges()

    def test_with_works_missing_task(self):
        with pytest.raises(WorkflowError, match="missing"):
            _simple().with_works({"a": 1.0})

    def test_with_data_sizes(self):
        wf = _simple()
        new = wf.with_data_sizes({("a", "b"): 9.0})
        assert new.data_gb("a", "b") == 9.0
        assert new.data_gb("a", "c") == 2.0  # untouched edges keep volume
