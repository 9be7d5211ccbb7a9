"""One static scheduling path at every size.

Stock ``HeftScheduler`` and ``LevelScheduler`` runs take the fused
columnar kernels for every workflow, the paper's 12-24 task shapes
included: the exact scheduler and policy types are the only dispatch
rule, and no task count gates it.  Subclasses, such as
``LocalityHeftScheduler``, keep the ``ScheduleBuilder`` path.
"""

from __future__ import annotations

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation import AllParScheduler, HeftScheduler, LevelScheduler
from repro.core.allocation.locality import LocalityHeftScheduler
from repro.core.builder import ScheduleBuilder
from repro.experiments.config import paper_strategies, paper_workflows
from repro.experiments.scenarios import paper_scenarios
from tests.oracles.builder_path import BuilderHeft, BuilderLevel

PLATFORM = CloudPlatform.ec2()
#: the HEFT and AllPar strategies of Figure 4 (StartPar*, OneVMperTask
#: and AllPar* on small, medium and large VMs)
STOCK = [
    s
    for s in paper_strategies()
    if type(s.algorithm_factory()) in (HeftScheduler, AllParScheduler)
]


class _BuilderMade(Exception):
    pass


@pytest.fixture
def refuse_builder(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise _BuilderMade

    monkeypatch.setattr(ScheduleBuilder, "__init__", refuse)


@pytest.mark.parametrize("wf_name", ["montage", "cstem", "mapreduce", "sequential"])
def test_stock_schedulers_never_make_a_builder(refuse_builder, wf_name):
    assert len(STOCK) == 15
    shape = paper_workflows()[wf_name]
    for scenario in paper_scenarios(PLATFORM):
        wf = scenario.apply(shape, 2013)
        for spec in STOCK:
            assert spec.run(wf, PLATFORM).makespan > 0, spec.label
        for policy in ("AllParExceed", "AllParNotExceed"):
            assert LevelScheduler(policy).schedule(wf, PLATFORM).makespan > 0


@pytest.mark.parametrize(
    "scheduler",
    [
        lambda: LocalityHeftScheduler(),
        lambda: BuilderHeft("StartParExceed"),
        lambda: BuilderLevel("AllParNotExceed"),
    ],
    ids=["locality", "heft-subclass", "level-subclass"],
)
def test_subclasses_keep_the_builder(refuse_builder, scheduler):
    with pytest.raises(_BuilderMade):
        scheduler().schedule(paper_workflows()["montage"], PLATFORM)
