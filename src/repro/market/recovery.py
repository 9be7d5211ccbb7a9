"""Bidding-aware recovery: what to do when the spot market reclaims a VM.

The paper-era policies of :mod:`repro.core.recovery` treat every VM
death the same; under a spot market the *purchase option* of the
replacement is itself a decision.  Two composable policies cover the
bidding story:

* :class:`RebidHigher` — resubmit on a fresh spot VM with the bid
  raised by a multiplicative step, falling back to on-demand once the
  escalated bid would exceed ``max_bid`` (paying above list price to
  keep losing capacity is strictly worse than on-demand);
* :class:`FallbackOnDemand` — give up on spot after the first
  reclamation and resubmit on-demand (the conservative bracket).

Non-preemption failures (task transients, random crashes) are delegated
to a wrapped *base* policy from the core registry, so the bidding axis
composes with retry/resubmit/replan rather than replacing them.  Both
policies optionally checkpoint on the reclamation warning
(``checkpoint_on_warning``): work done before the warning is preserved
and the replacement attempt runs only the remainder plus
``restart_cost_seconds`` of restore overhead.

Importing this module registers ``"rebid"`` and ``"fallback"`` in
:data:`~repro.core.recovery.RECOVERY_POLICIES`;
:func:`~repro.core.recovery.recovery_policy` triggers that import
lazily, so the names resolve everywhere without the core layer
depending on the market package at import time.
"""

from __future__ import annotations

import math

from repro.core.recovery import (
    RECOVERY_POLICIES,
    FailureEvent,
    RecoveryAction,
    RecoveryPolicy,
    recovery_policy,
)
from repro.errors import SchedulingError
from repro.market.spot import ON_DEMAND, PurchaseOption, spot


class _MarketPolicy(RecoveryPolicy):
    """Shared plumbing: wrap a base policy, mirror its queue semantics."""

    def __init__(
        self,
        base: "str | RecoveryPolicy | None" = "resubmit",
        max_attempts: int = 8,
        backoff_base: float = 0.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 600.0,
        checkpoint_on_warning: bool = False,
        restart_cost_seconds: float = 0.0,
    ) -> None:
        super().__init__(max_attempts, backoff_base, backoff_factor, backoff_cap)
        if not restart_cost_seconds >= 0:  # NaN included
            raise SchedulingError(
                f"restart_cost_seconds must be >= 0, got {restart_cost_seconds}"
            )
        self.base = recovery_policy(base)
        # crashed-VM queue handling and retry affinity follow the base
        self.queue_strategy = self.base.queue_strategy
        self.prefer_same_vm = self.base.prefer_same_vm
        self.checkpoint_on_warning = checkpoint_on_warning
        self.restart_cost_seconds = restart_cost_seconds

    def on_preemption(self, failure: FailureEvent) -> RecoveryAction:
        raise NotImplementedError

    def on_task_failure(self, failure: FailureEvent) -> RecoveryAction:
        if failure.attempt >= self.max_attempts:
            return RecoveryAction("abort")
        if failure.reason == "spot_preempt":
            return self.on_preemption(failure)
        return self.base.on_task_failure(failure)


class RebidHigher(_MarketPolicy):
    """Resubmit with the bid raised by ``step`` ×, capped at ``max_bid``.

    A preempted spot VM's tasks come back as spot requests bidding
    ``prior bid × step`` (tag ``rebid.higher``); once that would exceed
    ``max_bid`` — by default the list price — the policy resubmits
    on-demand instead (tag ``rebid.fallback``).
    """

    name = "rebid"

    def __init__(
        self,
        base: "str | RecoveryPolicy | None" = "resubmit",
        step: float = 1.5,
        max_bid: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(base, **kwargs)
        if not step > 1.0:  # NaN included
            raise SchedulingError(f"rebid step must be > 1, got {step}")
        if not max_bid > 0:
            raise SchedulingError(f"max_bid must be > 0, got {max_bid}")
        self.step = step
        self.max_bid = max_bid

    def on_preemption(self, failure: FailureEvent) -> RecoveryAction:
        prior = failure.purchase
        delay = self.backoff(failure.attempt)
        if not isinstance(prior, PurchaseOption) or not prior.is_spot:
            # nothing to escalate — buy safety outright
            return RecoveryAction("resubmit", delay, ON_DEMAND, "rebid.fallback")
        bid = prior.bid_multiplier * self.step
        if bid > self.max_bid or math.isinf(bid):
            return RecoveryAction("resubmit", delay, ON_DEMAND, "rebid.fallback")
        return RecoveryAction("resubmit", delay, spot(bid), "rebid.higher")


class FallbackOnDemand(_MarketPolicy):
    """Resubmit every preempted task on-demand — spot never twice."""

    name = "fallback"

    def on_preemption(self, failure: FailureEvent) -> RecoveryAction:
        delay = self.backoff(failure.attempt)
        return RecoveryAction("resubmit", delay, ON_DEMAND, "rebid.fallback")


RECOVERY_POLICIES.setdefault(RebidHigher.name, RebidHigher)
RECOVERY_POLICIES.setdefault(FallbackOnDemand.name, FallbackOnDemand)
