"""EC2 on-demand instance catalog (paper Sect. IV-A).

Four types — small, medium, large, xlarge — with 1/2/4/8 cores, Stata/MP
speed-ups 1 / 1.6 / 2.1 / 2.7 over the small baseline, and 1 Gb links
for the two small types vs 10 Gb for the two large ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import PlatformError


def sealed(cls):
    """Refuse subclasses of the platform model *cls* at class creation.

    The paper fixes the formulas (BTU rounding, ``work / speedup``,
    store-and-forward over the slower link) and the kernels inline them,
    so a model varies by its fields only: ``dataclasses.replace`` or
    the constructor, never an override.
    """

    def refuse(sub, **kwargs):
        raise PlatformError(
            f"{cls.__name__} cannot be subclassed ({sub.__name__}); "
            f"vary its fields instead"
        )

    cls.__init_subclass__ = classmethod(refuse)
    return cls


@sealed
@dataclass(frozen=True, order=True)
class InstanceType:
    """An IaaS instance flavor.

    Ordering is by *speedup* (ties broken by the other fields), so
    ``sorted(INSTANCE_TYPES.values())`` goes slowest to fastest —
    the upgrade ladder CPA-Eager/Gain/AllPar1LnSDyn climb.
    """

    speedup: float
    cores: int
    name: str
    short: str
    link_gbps: float

    def __post_init__(self) -> None:
        finite = 0 < self.speedup < math.inf and 0 < self.link_gbps < math.inf
        if not finite or self.cores <= 0:  # a range test also rejects NaN
            raise PlatformError(f"invalid instance type parameters: {self}")

    def runtime(self, reference_seconds: float) -> float:
        """Execution time of a task whose small-instance time is given."""
        if reference_seconds < 0:
            raise PlatformError("reference runtime must be >= 0")
        return reference_seconds / self.speedup


SMALL = InstanceType(speedup=1.0, cores=1, name="small", short="s", link_gbps=1.0)
MEDIUM = InstanceType(speedup=1.6, cores=2, name="medium", short="m", link_gbps=1.0)
LARGE = InstanceType(speedup=2.1, cores=4, name="large", short="l", link_gbps=10.0)
XLARGE = InstanceType(speedup=2.7, cores=8, name="xlarge", short="xl", link_gbps=10.0)

#: canonical catalog, slowest first
INSTANCE_TYPES: Dict[str, InstanceType] = {
    t.name: t for t in (SMALL, MEDIUM, LARGE, XLARGE)
}
_BY_SHORT = {t.short: t for t in INSTANCE_TYPES.values()}


def instance_type(name: str) -> InstanceType:
    """Look up an instance type by full (``"large"``) or short (``"l"``)
    name; raises :class:`PlatformError` on unknown names."""
    key = name.lower()
    if key in INSTANCE_TYPES:
        return INSTANCE_TYPES[key]
    if key in _BY_SHORT:
        return _BY_SHORT[key]
    raise PlatformError(
        f"unknown instance type {name!r}; known: {sorted(INSTANCE_TYPES)}"
    )


def value_ratio(itype: InstanceType) -> float:
    """Speed-up per unit of price multiple — the paper's Sect.-V "benefit
    of renting" figure: small 1.0, medium 0.8, large 0.525, xlarge
    0.3375.  (The paper prints 0.675 for large, which is the *xlarge*
    speed-up over the *large* price — a slip its own Table IV
    contradicts; see EXPERIMENTS.md.)

    Under EC2's cost-per-core pricing the price multiple equals the core
    count, so this is ``speedup / cores``.
    """
    return itype.speedup / itype.cores


#: the upgrade ladder, slowest first
_LADDER = sorted(INSTANCE_TYPES.values())


def faster_types(itype: InstanceType) -> List[InstanceType]:
    """Catalog types strictly faster than *itype*, slowest first."""
    return [t for t in _LADDER if t.speedup > itype.speedup]


def next_faster(itype: InstanceType) -> InstanceType | None:
    """The next rung of the upgrade ladder, or ``None`` at the top."""
    return next((t for t in _LADDER if t.speedup > itype.speedup), None)
