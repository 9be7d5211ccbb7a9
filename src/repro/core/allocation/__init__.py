"""Task allocation strategies (paper Sect. III-B): HEFT, CPA-Eager,
Gain, the AllPar level schedulers and the AllPar1LnS[Dyn] parallelism
reducers."""

from repro.core.allocation.base import (
    SchedulingAlgorithm,
    scheduling_algorithm,
    SCHEDULING_ALGORITHMS,
)
from repro.core.allocation.ranking import upward_rank, heft_order, level_order
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import LevelScheduler, AllParScheduler
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.core.allocation.allpar1lns import (
    AllPar1LnSScheduler,
    AllPar1LnSDynScheduler,
    pack_level,
)
from repro.core.allocation.baselines import RoundRobinScheduler, LeastLoadScheduler
from repro.core.allocation.deadline import DeadlineScheduler
from repro.core.allocation.locality import LocalityHeftScheduler, pin_regions
from repro.core.allocation.pch import PchScheduler

__all__ = [
    "SchedulingAlgorithm",
    "scheduling_algorithm",
    "SCHEDULING_ALGORITHMS",
    "upward_rank",
    "heft_order",
    "level_order",
    "HeftScheduler",
    "LevelScheduler",
    "AllParScheduler",
    "CpaEagerScheduler",
    "GainScheduler",
    "AllPar1LnSScheduler",
    "AllPar1LnSDynScheduler",
    "pack_level",
    "RoundRobinScheduler",
    "LeastLoadScheduler",
    "DeadlineScheduler",
    "LocalityHeftScheduler",
    "pin_regions",
    "PchScheduler",
]
