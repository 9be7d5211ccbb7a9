"""Hypothesis round-trip properties for the workflow interchange
format (DAX XML) over random shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoDataModel
from repro.workflows.dax import parse_dax_string, to_dax
from repro.workflows.generators import random_layered

_shapes = st.builds(
    random_layered,
    layers=st.integers(1, 5),
    width_range=st.just((1, 4)),
    edge_density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)


@settings(max_examples=25, deadline=None)
@given(_shapes, st.integers(0, 1000))
def test_dax_round_trip_with_data(wf, seed):
    """DAX round-trips structure, runtimes and edge volumes (sizes are
    quantized to whole bytes by the format)."""
    concrete = apply_model(wf, ParetoDataModel(), seed=seed)
    back = parse_dax_string(to_dax(concrete))
    assert sorted(back.task_ids) == sorted(concrete.task_ids)
    assert sorted((u, v) for u, v, _ in back.edges()) == sorted(
        (u, v) for u, v, _ in concrete.edges()
    )
    for t in concrete.tasks:
        assert back.task(t.id).work == pytest.approx(t.work)
    for u, v, gb in concrete.edges():
        assert back.data_gb(u, v) == pytest.approx(gb, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(_shapes)
def test_round_trips_preserve_schedulability(wf):
    """A twice-round-tripped workflow schedules identically."""
    from repro.cloud.platform import CloudPlatform
    from repro.core.allocation.heft import HeftScheduler

    platform = CloudPlatform.ec2()
    back = parse_dax_string(to_dax(wf))
    a = HeftScheduler("StartParNotExceed").schedule(wf, platform)
    b = HeftScheduler("StartParNotExceed").schedule(back, platform)
    assert a.makespan == pytest.approx(b.makespan)
    assert a.total_cost == pytest.approx(b.total_cost)
