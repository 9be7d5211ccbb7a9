"""Array-built workflows against their object-built twins.

:meth:`Workflow.from_arrays` builds only the :class:`ColumnarDAG`,
making the Task objects and adjacency dicts on first use.  Its object
twin replays the same columns through per-call :meth:`Workflow.add_task`
and :meth:`Workflow.add_dependency` (a generator's twin is the generator
run with ``from_arrays`` patched to do that).  The two must be
indistinguishable: the same columnar fields, the same materialized
tasks and edges, the same structural queries, the same behaviour after
later mutation and a pickle round-trip, and the same error class on
every bad input.  Their copies (:meth:`Workflow.with_works`,
:meth:`Workflow.with_data_sizes`, ``apply_model``) must equal the
per-call copy of the object twin, which re-adds edges parent-major.
"""

from __future__ import annotations

import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation.locality import pin_regions
from repro.errors import WorkflowError
from repro.kernels.columnar import ColumnarDAG, get_columnar
from repro.workflows.dag import Workflow
from repro.workflows.generators import mapreduce, montage
from repro.workflows.task import Task
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoDataModel, ParetoModel


def _object_build(name, ids, works, cats, src, dst, gb) -> Workflow:
    """The per-call object build the array constructor must agree with."""
    wf = Workflow(name)
    for tid, w, c in zip(ids, works, cats):
        wf.add_task(Task(tid, w, c))
    name_of = dict(enumerate(ids))
    for u, v, g in zip(src, dst, gb):
        # a position with no task names no task
        wf.add_dependency(name_of.get(u, f"#{u}"), name_of.get(v, f"#{v}"), g)
    return wf.validate()


def _batch_build(name, ids, works, cats, src, dst, gb) -> Workflow:
    """The same columns through the batch :meth:`Workflow.add_tasks` and
    :meth:`Workflow.add_dependencies`."""
    wf = Workflow(name)
    wf.add_tasks(map(Task, ids, works, cats))
    name_of = dict(enumerate(ids))
    wf.add_dependencies(
        (name_of.get(u, f"#{u}"), name_of.get(v, f"#{v}"), g)
        for u, v, g in zip(src, dst, gb)
    )
    return wf.validate()


def _object_twin(build) -> Workflow:
    """*build*'s workflow with every ``from_arrays`` call replayed
    through :func:`_object_build`."""

    def per_call(cls, name, *columns):
        return _object_build(name, *(np.asarray(c).tolist() for c in columns))

    with mock.patch.object(Workflow, "from_arrays", classmethod(per_call)):
        return build()


def _twins(build):
    return build(), _object_twin(build)


def _assert_same_columns(a: ColumnarDAG, b: ColumnarDAG) -> None:
    for name in ColumnarDAG.__slots__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def _rows(adj):
    return [(t, list(row.items())) for t, row in adj.items()]


def _assert_twins(arrays: Workflow, objects: Workflow) -> None:
    _assert_same_columns(get_columnar(arrays), get_columnar(objects))
    assert len(arrays) == len(objects)
    assert arrays.task_ids == objects.task_ids
    assert list(arrays) == list(objects)
    assert arrays.edges() == objects.edges()
    assert dict(arrays.pred_map()) == dict(objects.pred_map())
    # predecessor rows in the same insertion order, with the same volumes
    assert _rows(arrays._pred) == _rows(objects._pred)
    assert arrays.levels() == objects.levels()
    assert arrays.critical_path() == objects.critical_path()
    assert arrays.total_work() == objects.total_work()


def _check_generator(build) -> None:
    arrays, objects = _twins(build)
    assert "_tasks" not in vars(arrays)  # array-built, not yet made
    assert "_tasks" in vars(objects)
    clone = pickle.loads(pickle.dumps(arrays))
    assert "_tasks" not in vars(clone)
    _assert_twins(clone, objects)
    _assert_twins(arrays, objects)
    # mutation after generation: the array side makes its object form,
    # then both invalidate and re-derive alike
    for wf in (arrays, objects):
        exit_id = wf.exit_tasks()[0]
        wf.add_task(Task("extra", 42.0, "late"))
        wf.add_dependency(exit_id, "extra", 0.5)
        wf.add_dependencies([(wf.entry_tasks()[0], "extra", 0.25)])
        wf.validate()
    _assert_twins(arrays, objects)


@pytest.mark.parametrize("p", [2, 3, 6])
def test_montage_array_build_matches_object_build(p):
    _check_generator(lambda: montage(p))


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 60))
def test_montage_array_build_matches_object_build_drawn(p):
    _check_generator(lambda: montage(p))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6))
def test_mapreduce_array_build_matches_object_build(m, r):
    _check_generator(lambda: mapreduce(m, r))


def test_large_montage_is_array_built_by_default():
    wf = montage(1400)  # 4,206 tasks
    assert "_tasks" not in vars(wf)
    _assert_twins(wf, _object_twin(lambda: montage(1400)))


_GOOD = dict(
    ids=["a", "b", "c", "d"],
    works=[10.0, 20.0, 30.0, 40.0],
    cats=["x", "y", "y", "z"],
    src=[0, 0, 1, 2],
    dst=[1, 2, 3, 3],
    gb=[0.1, 0.2, 0.3, 0.4],
)


def _build(kind, **overrides):
    """*kind*: ``arrays`` (:meth:`Workflow.from_arrays`), ``objects``
    (the batch object build) or ``object`` (the per-call one)."""
    args = {**_GOOD, **overrides}
    build = {
        "arrays": Workflow.from_arrays,
        "objects": _batch_build,
        "object": _object_build,
    }[kind]
    return build("bad", *args.values())


def test_duplicate_edges_keep_first_position_and_last_volume():
    dup = dict(src=[0, 0, 1, 0, 2], dst=[1, 2, 3, 1, 3], gb=[0.1, 0.2, 0.3, 9.0, 0.4])
    arrays = _build("arrays", **dup)
    objects = _build("objects", **dup)
    _assert_twins(arrays, objects)
    assert arrays.edges()[0] == ("a", "b", 9.0)
    _assert_twins(_build("object", **dup), objects)


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(ids=["a", "", "c", "d"]), id="empty-id"),
        pytest.param(dict(ids=["a", "b", "a", "d"]), id="duplicate-id"),
        pytest.param(dict(works=[10.0, math.nan, 30.0, 40.0]), id="nan-work"),
        pytest.param(dict(works=[10.0, math.inf, 30.0, 40.0]), id="inf-work"),
        pytest.param(dict(works=[10.0, 0.0, 30.0, 40.0]), id="zero-work"),
        pytest.param(dict(works=[10.0, -5.0, 30.0, 40.0]), id="negative-work"),
        pytest.param(dict(dst=[1, 2, 4, 3]), id="unknown-endpoint"),
        pytest.param(dict(src=[0, 0, 1, 2], dst=[1, 2, 3, 2]), id="self-edge"),
        pytest.param(dict(gb=[0.1, -0.2, 0.3, 0.4]), id="negative-gb"),
        pytest.param(dict(gb=[0.1, 0.2, math.nan, 0.4]), id="nan-gb"),
        pytest.param(dict(gb=[0.1, 0.2, math.inf, 0.4]), id="inf-gb"),
        pytest.param(dict(src=[0, 1, 3, 2], dst=[1, 3, 0, 3]), id="cycle"),
        pytest.param(
            dict(ids=[], works=[], cats=[], src=[], dst=[], gb=[]), id="empty"
        ),
    ],
)
@pytest.mark.parametrize("kind", ["arrays", "objects", "object"])
def test_bad_input_raises_the_same_error_class(kind, overrides):
    with pytest.raises(WorkflowError):
        _build(kind, **overrides)


@pytest.mark.parametrize("gb", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["arrays", "objects"])
def test_non_finite_volume_names_the_edge(kind, gb):
    with pytest.raises(WorkflowError, match="non-finite.*'b'->'d'"):
        _build(kind, gb=[0.1, 0.2, gb, 0.4])


@pytest.mark.parametrize("n", [3, 5000])
def test_cycle_error_names_the_stuck_tasks(n):
    """A ring of *n* tasks: the array build names the never-peeled
    tasks in the words of the object build's cycle check."""
    ids = [f"t{i}" for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    ring = ("cyc", ids, [10.0] * n, ["x"] * n, list(range(n)), nxt, [0.0] * n)
    with pytest.raises(WorkflowError) as arrays:
        Workflow.from_arrays(*ring)
    with pytest.raises(WorkflowError) as objects:
        _object_build(*ring)
    first = sorted(ids)[:5]
    assert str(arrays.value) == (
        f"workflow 'cyc' has a cycle: {n} task(s) never become ready, first {first}"
    )
    assert str(arrays.value) == str(objects.value)


# ----------------------------------------------------------------------
# copies: with_works / with_data_sizes / apply_model
# ----------------------------------------------------------------------
def _reference_copy(wf, works=None, sizes=None) -> Workflow:
    """The per-call copy every workflow copy must agree with: tasks in
    order, then edges parent-major (``edges()`` order)."""
    sizes = sizes or {}
    out = Workflow(wf.name)
    for t in wf.tasks:
        out.add_task(t if works is None else t.with_work(works[t.id]))
    for u, v, g in wf.edges():
        out.add_dependency(u, v, sizes.get((u, v), g))
    return out.validate()


def _copies(objects: Workflow):
    """``(name, copy, reference)`` triples; *objects* is object-built,
    so it may be read freely to make the arguments."""
    works = {t.id: 100.0 + 7 * k for k, t in enumerate(objects)}
    edges = objects.edges()
    sizes = {(u, v): 0.5 + k for k, (u, v, _) in enumerate(edges[::2])}
    sizes[("no-such", "edge")] = 3.0
    drawn = ParetoModel().runtimes(objects, 11)
    return [
        ("works", lambda wf: wf.with_works(works), _reference_copy(objects, works)),
        (
            "sizes",
            lambda wf: wf.with_data_sizes(sizes),
            _reference_copy(objects, sizes=sizes),
        ),
        (
            "pareto",
            lambda wf: apply_model(wf, ParetoModel(), 11),
            _reference_copy(objects, drawn),
        ),
    ]


def _check_copies(build) -> None:
    objects = _object_twin(build)
    for label, copy, reference in _copies(objects):
        shape = build()
        out = copy(shape)
        assert "_tasks" not in vars(shape), label  # input left as arrays
        assert "_tasks" not in vars(out), label  # the copy is array-built
        clone = pickle.loads(pickle.dumps(out))
        assert "_tasks" not in vars(clone), label
        _assert_twins(clone, reference)
        _assert_twins(out, reference)
        _assert_twins(copy(objects), reference)


@pytest.mark.parametrize("p", [2, 3, 6, 40])
def test_montage_copies_match_object_copies(p):
    _check_copies(lambda: montage(p))


@pytest.mark.parametrize("m,r", [(1, 1), (4, 2), (10, 3)])
def test_mapreduce_copies_match_object_copies(m, r):
    _check_copies(lambda: mapreduce(m, r))


def test_montage_copy_reorders_edges_parent_major():
    """Montage inserts ``mProject_{p-1} -> mDiffFit_{p-1}`` before
    ``mProject_0 -> mDiffFit_{p-1}``; the copy re-adds edges parent-major,
    so its predecessor rows differ from the shape's."""
    shape = _object_twin(lambda: montage(3))
    copied = montage(3).with_works({t.id: t.work for t in shape})
    assert _rows(copied._pred) != _rows(shape._pred)
    assert _rows(copied._pred) == _rows(_reference_copy(shape)._pred)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: montage(3), id="montage3-reordered"),
        pytest.param(lambda: montage(40), id="montage40"),
        pytest.param(lambda: mapreduce(1, 1), id="mapreduce1x1"),
        pytest.param(lambda: mapreduce(10, 3), id="mapreduce10x3"),
    ],
)
def test_data_sizes_draw_over_array_edges(build):
    """``ParetoDataModel.data_sizes`` reads an array build's edge pairs
    from its columns: the same dict (keys, order, values) as the draw
    over the object twin's ``edges()``, and the input stays lazy.
    Montage's insertion order is not parent-major, so a draw in column
    order would give edges other sizes."""
    model = ParetoDataModel()
    shape = build()
    got = model.data_sizes(shape, 7)
    assert "_lazy" in vars(shape)
    objects = _object_twin(build)
    want = model.data_sizes(objects, 7)
    assert list(got.items()) == list(want.items())
    assert list(got) == [(u, v) for u, v, _ in objects.edges()]


def test_data_model_copy_matches_two_step_copy():
    shape = montage(4)
    out = apply_model(shape, ParetoDataModel(), 5)
    model = ParetoDataModel()
    ref = _reference_copy(
        _reference_copy(montage(4), model.runtimes(shape, 5)),
        sizes=model.data_sizes(shape, 5),
    )
    _assert_twins(out, ref)


def _sides(p=3):
    """An array-built montage and its object-built twin."""
    return montage(p), _object_twin(lambda: montage(p))


def _same_error(sides, copy, match) -> None:
    """*copy* raises the same :class:`WorkflowError` on both *sides*."""
    errors = []
    for wf in sides:
        with pytest.raises(WorkflowError, match=match) as err:
            copy(wf)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_copy_missing_works_raises():
    arrays, objects = _sides()
    first = arrays.task_ids[0]
    copy = lambda wf: wf.with_works({first: 1.0})  # noqa: E731
    _same_error((arrays, objects), copy, "works missing")
    assert "_tasks" not in vars(arrays)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -5.0, math.inf])
def test_copy_bad_work_names_the_task(bad):
    arrays, objects = _sides()
    victim = arrays.task_ids[4]
    works = {t: 100.0 for t in arrays.task_ids}
    works[victim] = bad
    match = re.escape(f"task {victim!r}: work must be a positive finite number")
    _same_error((arrays, objects), lambda wf: wf.with_works(works), match)


def _out_of_order_pair(objects):
    """``(early, late, child)``: two parents of one child whose edges
    were inserted late-parent first (montage has such pairs)."""
    pos = {t: k for k, t in enumerate(objects.task_ids)}
    for child, row in objects._pred.items():
        parents = list(row)
        for late, early in zip(parents, parents[1:]):
            if pos[early] < pos[late]:
                return early, late, child
    raise AssertionError("no out-of-order predecessor row")


@pytest.mark.parametrize(
    "bad,words",
    [(-1.0, "negative data size"), (math.nan, "non-finite data size nan"),
     (math.inf, "non-finite data size inf")],
)
def test_copy_bad_size_names_the_first_edge_parent_major(bad, words):
    """Two bad volumes: both copies name the edge ``edges()`` lists
    first, not the one the generator inserted first."""
    arrays, objects = _sides()
    early, late, child = _out_of_order_pair(objects)
    sizes = {(late, child): bad, (early, child): bad}
    match = re.escape(f"{words} on {early!r}->{child!r}")
    _same_error((arrays, objects), lambda wf: wf.with_data_sizes(sizes), match)


def test_copy_ignores_sizes_of_missing_edges():
    arrays, objects = _sides()
    first, second = arrays.task_ids[:2]
    sizes = {(second, first): 9.0, ("ghost", first): -1.0, (first, "ghost"): math.nan}
    out = arrays.with_data_sizes(sizes)
    assert "_tasks" not in vars(out)
    _assert_twins(out, _reference_copy(objects))


def test_copy_keeps_task_attrs():
    """A workflow carrying ``attrs`` (here region pins) keeps them
    through every copy."""
    shape = montage(3)
    entry = shape.entry_tasks()[0]
    pinned = pin_regions(shape, {entry: "eu-west"})
    attrs = {t.id: dict(t.attrs) for t in pinned}
    assert attrs[entry] == {"region": "eu-west"}
    works = {t.id: 2 * t.work for t in pinned}
    copies = (
        pinned.with_works(works),
        pinned.with_data_sizes({}),
        apply_model(pinned, ParetoModel(), 3),
    )
    for out in copies:
        assert {t.id: dict(t.attrs) for t in out} == attrs
    assert copies[0].task(entry).work == 2 * pinned.task(entry).work
