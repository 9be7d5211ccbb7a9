"""Spot markets, variable pricing, and bidding-aware recovery.

The paper's cloud is fixed-price on-demand with instant boot.  This
package models the axes the follow-on literature (Sarkar et al.,
arXiv:2504.21536) treats as first-class:

* :mod:`repro.market.prices` — seed-deterministic price *processes*
  (constant, step-trace, mean-reverting random walk) realized as
  piecewise-constant :class:`~repro.market.prices.PricePath`\\ s per
  (flavor, region);
* :mod:`repro.market.spot` — the :class:`~repro.market.spot.Market`
  bundle (price process + :class:`~repro.market.spot.PurchaseOption` +
  grace window) and the :class:`~repro.market.spot.SpotInterruptionPlan`
  that derives VM preemption times from price-crossing events of the
  same price stream;
* :mod:`repro.market.recovery` — bidding-aware recovery policies
  (:class:`~repro.market.recovery.RebidHigher`,
  :class:`~repro.market.recovery.FallbackOnDemand`) composed with the
  paper-era policies of :mod:`repro.core.recovery`.

A market enters a run through the ``market`` field of a
:class:`~repro.simulator.faults.FaultPlan` — the price path is seeded by the plan seed,
so ``with_seed`` re-samples prices exactly like every other fault
process — or ambiently through ``CloudPlatform(market=...)``, which the
executors adopt when no plan is given.
"""

from repro.market.prices import (
    ConstantPrice,
    MeanRevertingPrice,
    PricePath,
    PriceProcess,
    StepTracePrice,
    price_path,
)
from repro.market.recovery import FallbackOnDemand, RebidHigher
from repro.market.spot import (
    ON_DEMAND,
    Market,
    PurchaseOption,
    SpotInterruptionPlan,
    spot,
)

__all__ = [
    "ConstantPrice",
    "FallbackOnDemand",
    "Market",
    "MeanRevertingPrice",
    "ON_DEMAND",
    "PricePath",
    "PriceProcess",
    "PurchaseOption",
    "RebidHigher",
    "SpotInterruptionPlan",
    "StepTracePrice",
    "price_path",
    "spot",
]
