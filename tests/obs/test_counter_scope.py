"""The ``MetricsRegistry`` records simulation facts, not effort.

A counter such as "data-ready memo hits" measures how a query was
answered, so it changes whenever the search gets cheaper while the plan
stays the same, and pinning it in a digest pins the search.  The only
``builder.*`` counters are the facts ``builder.vms_rented`` and
``builder.tasks_placed``, on every paper strategy and on a fault replan
(which builds its plans under the registry), and the fused kernels
still count exactly what the builder path counts.
"""

from __future__ import annotations

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation import HeftScheduler, LevelScheduler
from repro.core.recovery import ReplanRemaining
from repro.experiments.config import paper_strategies, strategy
from repro.obs.metrics import MetricsRegistry
from repro.simulator.executor import ScheduleExecutor
from repro.simulator.faults import FaultPlan
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.generators import montage
from tests.oracles.builder_path import BuilderHeft, BuilderLevel

PLATFORM = CloudPlatform.ec2()
FACTS = {"builder.vms_rented", "builder.tasks_placed"}


def _workflow():
    return apply_model(montage(20), ParetoModel(), seed=0)


def _builder_keys(registry):
    return {k for k in registry.counters if k.startswith("builder.")}


@pytest.mark.parametrize("label", [s.label for s in paper_strategies()])
def test_paper_strategies_count_only_facts(label):
    registry = MetricsRegistry()
    with registry.activate():
        strategy(label).run(_workflow(), PLATFORM)
    assert _builder_keys(registry) == FACTS


def test_a_fault_replan_counts_only_facts():
    sched = strategy("AllParNotExceed-s").run(montage(25), PLATFORM)
    plan = FaultPlan(seed=1, task_fail_prob=0.2, vm_crash_rate=1 / 7200)
    registry = MetricsRegistry()
    with registry.activate():
        ScheduleExecutor(sched, fault_plan=plan, recovery=ReplanRemaining()).run()
    assert registry.counters["recovery.replans"] > 0
    assert _builder_keys(registry) == FACTS


@pytest.mark.parametrize(
    "policy,fused,indexed",
    [
        ("AllParExceed", LevelScheduler, BuilderLevel),
        ("AllParNotExceed", LevelScheduler, BuilderLevel),
        ("StartParExceed", HeftScheduler, BuilderHeft),
        ("StartParNotExceed", HeftScheduler, BuilderHeft),
        ("OneVMperTask", HeftScheduler, BuilderHeft),
    ],
)
def test_fused_and_indexed_runs_count_alike(policy, fused, indexed):
    dumps = []
    for scheduler in (fused, indexed):
        registry = MetricsRegistry()
        with registry.activate():
            scheduler(policy).schedule(_workflow(), PLATFORM)
        dumps.append(registry.as_dict())
    assert dumps[0] == dumps[1]
    assert FACTS <= set(dumps[0]["counters"])
