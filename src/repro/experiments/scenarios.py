"""The paper's three execution-time scenarios (Sect. IV-B).

``pareto`` draws Feitelson Pareto runtimes; ``best`` makes all tasks
equal with the workflow fitting one BTU sequentially; ``worst`` makes
every task overrun a BTU even on the fastest instance.  A scenario is a
pure function of ``(workflow shape, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.util.suggest import unknown_name_message
from repro.workflows.dag import Workflow
from repro.workloads.base import ExecutionTimeModel, apply_model
from repro.workloads.pareto import ParetoModel
from repro.workloads.uniform import BestCaseModel, WorstCaseModel


@dataclass(frozen=True)
class Scenario:
    """A named execution-time regime applied to workflow shapes."""

    name: str
    model_factory: Callable[[], ExecutionTimeModel]
    #: stochastic scenarios consume the sweep seed; deterministic ones don't
    stochastic: bool = False

    def apply(self, workflow: Workflow, seed=None) -> Workflow:
        model = self.model_factory()
        return apply_model(workflow, model, seed if self.stochastic else None)


def paper_scenarios(platform: CloudPlatform | None = None) -> List[Scenario]:
    """Pareto / best / worst, parameterized by the platform's BTU and
    top speed-up so the boundary properties hold by construction."""
    platform = platform or CloudPlatform.ec2()
    btu = platform.btu_seconds
    max_speedup = max(t.speedup for t in platform.catalog.values())
    # functools.partial instead of lambdas so a Scenario pickles across
    # process-pool workers (repro.experiments.parallel).
    return [
        Scenario("pareto", ParetoModel, stochastic=True),
        Scenario("best", partial(BestCaseModel, btu_seconds=btu)),
        Scenario(
            "worst",
            partial(
                WorstCaseModel,
                btu_seconds=btu,
                max_speedup=max_speedup,
                factor=max_speedup + 0.1,
            ),
        ),
    ]


def scenario(name: str, platform: CloudPlatform | None = None) -> Scenario:
    """Look up one of the paper's scenarios by name."""
    scenarios = paper_scenarios(platform)
    for s in scenarios:
        if s.name == name.lower():
            return s
    raise ExperimentError(
        unknown_name_message("scenario", name, (s.name for s in scenarios))
    )


# ----------------------------------------------------------------------
# price scenarios (the market axis orthogonal to execution times)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PriceScenario:
    """A named price environment + the recovery policy that fits it.

    Orthogonal to the runtime :class:`Scenario` axis: a price scenario
    changes what VMs *cost* and when spot capacity is reclaimed, never
    how long tasks run.  ``on_demand`` is the control — the paper's
    fixed-price market, byte-identical to running without a market.
    """

    name: str
    market: object  # a repro.market.Market (typed loosely: lazy import)
    recovery: str = "rebid"


def price_scenarios() -> List["PriceScenario"]:
    """The default pricing family: a fixed-price control plus three
    spot regimes of increasing hostility.

    * ``on_demand`` — constant multiplier 1.0, on-demand purchases; the
      zero-market control (identical schedules, identical bills).
    * ``spot_calm`` — mean-reverting walk around 0.35x list price with
      a comfortable 0.8x bid; interruptions are rare, savings large.
    * ``spot_spike`` — a step trace with periodic spikes above a 0.5x
      bid: correlated reclamations hit all spot VMs of a flavor at
      once; recovery re-bids higher.
    * ``spot_volatile`` — a high-variance walk against a 0.6x bid;
      recovery falls back to on-demand after the first loss.
    """
    from repro.market import (
        ConstantPrice,
        Market,
        MeanRevertingPrice,
        StepTracePrice,
        spot,
    )

    spike_times = tuple(float(t) for t in range(0, 7 * 3600, 3600))
    spike_mults = tuple(1.2 if i % 2 else 0.3 for i in range(len(spike_times)))
    return [
        PriceScenario("on_demand", Market(ConstantPrice(1.0)), recovery="retry"),
        PriceScenario(
            "spot_calm",
            Market(MeanRevertingPrice(), purchase=spot(0.8)),
        ),
        PriceScenario(
            "spot_spike",
            Market(StepTracePrice(spike_times, spike_mults), purchase=spot(0.5)),
        ),
        PriceScenario(
            "spot_volatile",
            Market(
                MeanRevertingPrice(mean=0.45, sigma=0.2), purchase=spot(0.6)
            ),
            recovery="fallback",
        ),
    ]


def price_scenario(name: str) -> "PriceScenario":
    """Look up one pricing scenario by name."""
    family = price_scenarios()
    for s in family:
        if s.name == name.lower():
            return s
    raise ExperimentError(
        unknown_name_message("price scenario", name, (s.name for s in family))
    )
