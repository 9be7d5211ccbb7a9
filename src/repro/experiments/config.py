"""The 19 strategies and 4 workflows of the paper's evaluation.

Figure 4's legend enumerates exactly nineteen strategies: the five
provisioning policies at three instance sizes (``-s``, ``-m``, ``-l``;
xlarge is in the platform but only reachable through the dynamic
upgraders), plus CPA-Eager, GAIN, AllPar1LnS and AllPar1LnSDyn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.allpar1lns import (
    AllPar1LnSDynScheduler,
    AllPar1LnSScheduler,
)
from repro.core.allocation.base import SchedulingAlgorithm
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import AllParScheduler
from repro.core.schedule import Schedule
from repro.util.suggest import unknown_name_message
from repro.errors import ExperimentError
from repro.workflows.dag import Workflow
from repro.workflows.generators import cstem, mapreduce, montage, sequential


@dataclass(frozen=True)
class StrategySpec:
    """One legend entry of Figure 4: an algorithm + instance size."""

    label: str
    algorithm_factory: Callable[[], SchedulingAlgorithm]
    itype_name: str = "small"
    #: dynamic strategies pick sizes themselves; itype is their start size
    dynamic: bool = False

    def run(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        region: Region | None = None,
    ) -> Schedule:
        algo = self.algorithm_factory()
        itype: InstanceType = platform.itype(self.itype_name)
        return algo.schedule(workflow, platform, itype=itype, region=region)


_SIZES = ("small", "medium", "large")
_SUFFIX = {"small": "s", "medium": "m", "large": "l"}


def _homogeneous_specs() -> List[StrategySpec]:
    # functools.partial instead of lambdas so a StrategySpec pickles
    # across process-pool workers (repro.experiments.parallel).
    specs: List[StrategySpec] = []
    for size in _SIZES:
        sfx = _SUFFIX[size]
        specs.append(
            StrategySpec(
                f"StartParNotExceed-{sfx}",
                partial(HeftScheduler, "StartParNotExceed"),
                size,
            )
        )
        specs.append(
            StrategySpec(
                f"StartParExceed-{sfx}",
                partial(HeftScheduler, "StartParExceed"),
                size,
            )
        )
        specs.append(
            StrategySpec(
                f"AllParExceed-{sfx}", partial(AllParScheduler, exceed=True), size
            )
        )
        specs.append(
            StrategySpec(
                f"AllParNotExceed-{sfx}", partial(AllParScheduler, exceed=False), size
            )
        )
        specs.append(
            StrategySpec(
                f"OneVMperTask-{sfx}", partial(HeftScheduler, "OneVMperTask"), size
            )
        )
    return specs


def _dynamic_specs() -> List[StrategySpec]:
    return [
        StrategySpec("CPA-Eager", CpaEagerScheduler, "small", dynamic=True),
        StrategySpec("GAIN", GainScheduler, "small", dynamic=True),
        StrategySpec("AllPar1LnS", AllPar1LnSScheduler, "small", dynamic=False),
        StrategySpec("AllPar1LnSDyn", AllPar1LnSDynScheduler, "small", dynamic=True),
    ]


def paper_strategies() -> List[StrategySpec]:
    """The nineteen Figure-4 strategies, in the paper's legend order."""
    order = [
        "StartParNotExceed-s",
        "StartParExceed-s",
        "AllParExceed-s",
        "AllParNotExceed-s",
        "OneVMperTask-s",
        "StartParNotExceed-m",
        "StartParExceed-m",
        "AllParExceed-m",
        "AllParNotExceed-m",
        "OneVMperTask-m",
        "StartParNotExceed-l",
        "StartParExceed-l",
        "AllParExceed-l",
        "AllParNotExceed-l",
        "OneVMperTask-l",
    ]
    by_label = {s.label: s for s in _homogeneous_specs()}
    return [by_label[lbl] for lbl in order] + _dynamic_specs()


def strategy(label: str) -> StrategySpec:
    """Look up one of the paper's strategies by its Figure-4 label."""
    specs = paper_strategies()
    for spec in specs:
        if spec.label.lower() == label.lower():
            return spec
    raise ExperimentError(
        unknown_name_message("strategy label", label, (s.label for s in specs))
    )


def _paper_generators() -> Dict[str, Callable[[], Workflow]]:
    # read at call time, so a generator patched on this module (the
    # end-to-end benchmark's timing ledger) is the one that runs
    return {
        "montage": montage,
        "cstem": cstem,
        "mapreduce": mapreduce,
        "sequential": sequential,
    }


def paper_workflows() -> Dict[str, Workflow]:
    """The four Figure-2 workflow shapes with their default sizes."""
    return {name: build() for name, build in _paper_generators().items()}


def paper_workflow(name: str) -> Workflow:
    """One Figure-2 workflow shape by name, at its default size."""
    generators = _paper_generators()
    if name not in generators:
        raise ExperimentError(unknown_name_message("workflow", name, generators))
    return generators[name]()
