"""Differential test: the closed-form admission estimate vs the builder.

:func:`repro.service.admission.default_estimator` prices the
``OneVMperTask`` plan in one topological pass;
:func:`tests.oracles.admission_estimate.builder_estimate` runs the full
static builder and prices the frozen ``Schedule``.  Both must return
the same float (``==``, not approximately), over random layered DAGs
with data edges and the paper shapes, every flavor, every region,
prebooted and cold-boot platforms.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloud.instance import INSTANCE_TYPES
from repro.cloud.platform import CloudPlatform
from repro.experiments.config import paper_workflows
from repro.service.admission import default_estimator
from repro.service.arrivals import WorkflowRequest
from repro.service.loop import WorkflowService
from repro.workflows.dag import Workflow
from repro.workflows.task import Task
from tests.oracles.admission_estimate import builder_estimate

FLAVORS = sorted(INSTANCE_TYPES)
#: prebooted (the paper) and a cold boot long enough to move BTU edges
PLATFORMS = {
    "prebooted": CloudPlatform.ec2(),
    "cold": CloudPlatform.ec2(prebooted=False, boot_seconds=97.3),
}
REGIONS = sorted(PLATFORMS["prebooted"].regions)


def _compare(workflow, platform, flavor, region=None):
    """Price *workflow* through both estimators, each against its own
    fresh service; returns the two prices."""
    prices = []
    for estimate in (default_estimator, builder_estimate):
        service = WorkflowService(
            platform,
            itype=platform.itype(flavor),
            region=platform.region(region) if region else None,
        )
        prices.append(estimate(WorkflowRequest("a", workflow, 0.0), service))
    return prices


@st.composite
def layered_dags(draw):
    """A random layered DAG: every non-entry task has >= 1 parent in
    the previous layer; works and edge sizes are arbitrary floats."""
    wf = Workflow("hyp")
    previous = []
    for layer in range(draw(st.integers(1, 6))):
        current = []
        for i in range(draw(st.integers(1, 5))):
            tid = f"L{layer}_T{i}"
            work = draw(st.floats(0.01, 20_000.0, allow_nan=False))
            wf.add_task(Task(tid, work, "work"))
            current.append(tid)
        for tid in current if previous else ():
            parents = draw(
                st.lists(st.sampled_from(previous), min_size=1, unique=True)
            )
            for parent in parents:
                gb = draw(st.just(0.0) | st.floats(0.0, 60.0, allow_nan=False))
                wf.add_dependency(parent, tid, gb)
        previous = current
    return wf.validate()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workflow=layered_dags(),
    flavor=st.sampled_from(FLAVORS),
    boot=st.sampled_from(sorted(PLATFORMS)),
    region=st.sampled_from(REGIONS),
)
def test_closed_form_equals_builder_on_random_dags(workflow, flavor, boot, region):
    prices = _compare(workflow, PLATFORMS[boot], flavor, region)
    assert prices[0] == prices[1]


@pytest.mark.parametrize("boot", sorted(PLATFORMS))
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("shape", sorted(paper_workflows()))
def test_closed_form_equals_builder_on_paper_shapes(shape, flavor, boot):
    workflow = paper_workflows()[shape]
    prices = _compare(workflow, PLATFORMS[boot], flavor)
    assert prices[0] == prices[1]


@pytest.mark.parametrize(
    "entry_work,edge_work,gb",
    [
        # the second task's uptime sits on the 2-BTU edge, where its BTU
        # count depends on how its start time rounds: these pin the
        # start arithmetic (boot shift, cross-VM transfer), not just the
        # per-task runtime + boot
        (1000.3, 3502.700003600001, 0.0),
        (777777.7, 3502.7000035999226, 5.0),
    ],
)
def test_closed_form_rounds_like_builder_at_btu_edge(entry_work, edge_work, gb):
    workflow = Workflow("edge")
    workflow.add_task(Task("entry", entry_work, "work"))
    workflow.add_task(Task("edge", edge_work, "work"))
    workflow.add_dependency("entry", "edge", gb)
    prices = _compare(workflow.validate(), PLATFORMS["cold"], "small")
    assert prices[0] == prices[1]
