"""Cross-backend determinism and sweep-hardening guarantees.

A seeded service cell is a pure function of its fields, so the sweep
rollup must be byte-identical (as sorted JSON) no matter which
execution backend ran the cells — and a cell that exceeds
``cell_timeout`` must land in ``failure_summary()`` instead of hanging
the sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.service import (
    ServiceCell,
    build_requests,
    run_service_cell,
    run_service_sweep,
)

SWEEP_KWARGS = dict(
    policies=("StartParNotExceed",),
    admissions=("fifo", "fair"),
    seeds=2,
    count=10,
    tenants=3,
    mean_interarrival=600.0,
    max_concurrent=4,
)


def _bytes(sweep):
    return json.dumps(sweep.rollups(), sort_keys=True)


def test_rollup_is_byte_identical_across_backends(platform):
    reference = None
    for backend in ("serial", "thread", "process"):
        sweep = run_service_sweep(
            platform=platform, backend=backend, jobs=2, **SWEEP_KWARGS
        )
        assert sweep.complete, sweep.failure_summary()
        assert len(sweep.cells) == 4
        payload = _bytes(sweep)
        if reference is None:
            reference = payload
        else:
            assert payload == reference, f"{backend} diverged from serial"


def test_same_cell_twice_is_identical(platform):
    cell = ServiceCell(
        platform=platform,
        policy="AllParExceed",
        admission="fair",
        count=12,
        tenants=4,
        mean_interarrival=300.0,
        seed=42,
        max_concurrent=4,
    )
    first = run_service_cell(cell)
    second = run_service_cell(cell)
    assert json.dumps(first.rollup, sort_keys=True) == json.dumps(
        second.rollup, sort_keys=True
    )
    # the arrival stream itself replays identically
    a = build_requests(cell)
    b = build_requests(cell)
    assert [(r.tenant, r.name, r.arrival) for r in a] == [
        (r.tenant, r.name, r.arrival) for r in b
    ]


def test_timed_out_cell_reports_into_failure_summary(platform):
    # a cell far too large for a 1 ms budget: the guarded map must
    # convert the hang into a CellFailure, not block the sweep
    sweep = run_service_sweep(
        platform=platform,
        policies=("StartParNotExceed",),
        admissions=("fifo",),
        seeds=1,
        count=400,
        tenants=10,
        mean_interarrival=30.0,
        backend="serial",
        cell_timeout=0.001,
    )
    assert not sweep.complete
    assert sweep.cells == []
    summary = sweep.failure_summary()
    assert "StartParNotExceed/fifo#s0" in summary
    assert "TimeoutError" in summary


def test_sweep_rejects_empty_axes(platform):
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError, match="at least one"):
        run_service_sweep(platform=platform, policies=())


def test_sweep_rejects_repeated_axis_values(platform):
    # two cells under one rollup key used to merge into one
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError, match="axis 'policies' repeats"):
        run_service_sweep(
            platform=platform,
            policies=("StartParNotExceed",) * 2,
            admissions=("fifo",),
            seeds=1,
            count=5,
            tenants=2,
        )
    with pytest.raises(ExperimentError, match="axis 'seeds' repeats 4"):
        run_service_sweep(platform=platform, seeds=(4, 4), count=5, tenants=2)


def test_unknown_shape_raises_at_call(platform):
    # used to return a sweep whose every cell had failed
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError, match="did you mean 'montage'"):
        run_service_sweep(platform=platform, shapes=("montag",))
