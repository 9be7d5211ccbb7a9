"""The autotuner's configuration space.

A :class:`Candidate` is one complete way to run a workflow on the
cloud: a provisioning policy, an instance flavor, an optional
parallelism-reducing graph transform, a fault-recovery policy, and a
purchase option (price scenario).  A :class:`TuneSpace` is the cross
product of per-axis choices the search samples from.

Every axis is validated against the registry that owns it — the five
provisioning policies, the platform flavors, the reduction transforms
below, :data:`~repro.core.recovery.RECOVERY_POLICIES`, and the price
scenario family — so a typo fails at construction time with a
did-you-mean hint, exactly like the CLI registries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.provisioning import PROVISIONING_POLICIES
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, strategy
from repro.experiments.parallel import check_axes
from repro.util.suggest import unknown_name_message
from repro.workflows.dag import Workflow
from repro.workflows.transform import merge_chains

#: flavor name -> Figure-4 label suffix
FLAVOR_SUFFIX = {"small": "s", "medium": "m", "large": "l"}
#: accepted short spellings, normalized at validation time
_FLAVOR_ALIASES = {"s": "small", "m": "medium", "l": "large"}

#: parallelism-reduction transforms: name -> Workflow -> Workflow
REDUCTIONS: Dict[str, Optional[Callable[[Workflow], Workflow]]] = {
    "none": None,
    "chains": merge_chains,
}

#: default recovery axis — the paper's market-free policies; ``rebid``
#: and ``fallback`` can be added explicitly for spot-heavy spaces
DEFAULT_RECOVERIES = ("retry", "resubmit", "replan")
#: default purchase axis — the full price-scenario family
DEFAULT_PURCHASES = ("on_demand", "spot_calm", "spot_spike", "spot_volatile")


def _validate_flavor(name: str) -> str:
    key = str(name).lower()
    key = _FLAVOR_ALIASES.get(key, key)
    if key not in FLAVOR_SUFFIX:
        raise ExperimentError(unknown_name_message("flavor", name, FLAVOR_SUFFIX))
    return key


def _validate_policy(name: str) -> str:
    for known in PROVISIONING_POLICIES:
        if known.lower() == str(name).lower():
            return known
    raise ExperimentError(
        unknown_name_message("provisioning policy", name, PROVISIONING_POLICIES)
    )


def _validate_reduction(name: str) -> str:
    key = str(name).lower()
    if key not in REDUCTIONS:
        raise ExperimentError(unknown_name_message("reduction", name, REDUCTIONS))
    return key


def _validate_recovery(name: str) -> str:
    # the registry lookup raises SchedulingError with its own
    # did-you-mean; validating here keeps the error at space build time
    from repro.core.recovery import recovery_policy

    return recovery_policy(str(name)).name


def _validate_purchase(name: str) -> str:
    from repro.experiments.scenarios import price_scenario

    return price_scenario(str(name)).name


@dataclass(frozen=True)
class Candidate:
    """One point of the tune space: a complete run configuration."""

    policy: str
    flavor: str
    reduction: str
    recovery: str
    purchase: str

    def __post_init__(self) -> None:
        # normalize + validate every axis with a did-you-mean error, so
        # hand-built candidates fail exactly like space-built ones
        object.__setattr__(self, "policy", _validate_policy(self.policy))
        object.__setattr__(self, "flavor", _validate_flavor(self.flavor))
        object.__setattr__(self, "reduction", _validate_reduction(self.reduction))
        object.__setattr__(self, "recovery", _validate_recovery(self.recovery))
        object.__setattr__(self, "purchase", _validate_purchase(self.purchase))

    @property
    def label(self) -> str:
        """Stable human/report key, e.g.
        ``AllParExceed-m/chains/resubmit@spot_calm``."""
        return (
            f"{self.policy}-{FLAVOR_SUFFIX[self.flavor]}"
            f"/{self.reduction}/{self.recovery}@{self.purchase}"
        )

    @property
    def sort_key(self) -> Tuple[str, str, str, str, str]:
        """Deterministic tie-break order, independent of sampling order."""
        return (self.policy, self.flavor, self.reduction, self.recovery, self.purchase)

    def spec(self) -> StrategySpec:
        """The Figure-4 strategy this candidate schedules with."""
        return strategy(f"{self.policy}-{FLAVOR_SUFFIX[self.flavor]}")

    def reduce(self, workflow: Workflow) -> Workflow:
        """Apply the candidate's parallelism reduction (identity for
        ``"none"``)."""
        transform = REDUCTIONS[self.reduction]
        return workflow if transform is None else transform(workflow)

    def to_json(self) -> dict:
        return {
            "policy": self.policy,
            "flavor": self.flavor,
            "reduction": self.reduction,
            "recovery": self.recovery,
            "purchase": self.purchase,
        }


@dataclass(frozen=True)
class TuneSpace:
    """The cross product of per-axis choices the search draws from.

    Defaults cover the paper's five provisioning policies at all three
    flavors, both reduction settings, the three market-free recovery
    policies, and the full purchase-option family — 360 configurations.
    """

    policies: Tuple[str, ...] = tuple(PROVISIONING_POLICIES)
    flavors: Tuple[str, ...] = ("small", "medium", "large")
    reductions: Tuple[str, ...] = ("none", "chains")
    recoveries: Tuple[str, ...] = DEFAULT_RECOVERIES
    purchases: Tuple[str, ...] = DEFAULT_PURCHASES

    def __post_init__(self) -> None:
        axes = {
            "policies": (self.policies, _validate_policy),
            "flavors": (self.flavors, _validate_flavor),
            "reductions": (self.reductions, _validate_reduction),
            "recoveries": (self.recoveries, _validate_recovery),
            "purchases": (self.purchases, _validate_purchase),
        }
        for axis, (values, validate) in axes.items():
            normalized = tuple(validate(v) for v in values)
            check_axes("tune space", **{axis: normalized})
            object.__setattr__(self, axis, normalized)

    @property
    def size(self) -> int:
        return (
            len(self.policies)
            * len(self.flavors)
            * len(self.reductions)
            * len(self.recoveries)
            * len(self.purchases)
        )

    def all_candidates(self) -> Tuple[Candidate, ...]:
        """Every configuration, in deterministic axis-nested order."""
        return tuple(
            Candidate(p, f, red, rec, pur)
            for p in self.policies
            for f in self.flavors
            for red in self.reductions
            for rec in self.recoveries
            for pur in self.purchases
        )

    def sample(self, rng: np.random.Generator, n: int) -> Tuple[Candidate, ...]:
        """Draw *n* distinct candidates, seed-deterministically.

        Draws are without replacement over the enumerated space; asking
        for more than :attr:`size` returns the whole space.  The draw
        depends only on the generator state, never on hashing or
        interpreter details, so a fixed seed yields the same sample on
        every backend and platform.
        """
        if n < 1:
            raise ExperimentError(f"sample size must be >= 1, got {n}")
        pool = self.all_candidates()
        if n >= len(pool):
            return pool
        idx = rng.choice(len(pool), size=n, replace=False)
        return tuple(pool[int(i)] for i in sorted(idx))

    def to_json(self) -> dict:
        return {
            "policies": list(self.policies),
            "flavors": list(self.flavors),
            "reductions": list(self.reductions),
            "recoveries": list(self.recoveries),
            "purchases": list(self.purchases),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TuneSpace":
        known = ("policies", "flavors", "reductions", "recoveries", "purchases")
        unknown = set(data) - set(known)
        if unknown:
            raise ExperimentError(
                unknown_name_message("tune space axis", sorted(unknown)[0], known)
            )
        kwargs = {k: tuple(v) for k, v in data.items()}
        return cls(**kwargs)
