"""Amazon EC2 regions and on-demand prices — the paper's Table II
(prices observed October 31st, 2012, USD per BTU-hour, transfer-out per
GB)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.cloud.instance import InstanceType
from repro.errors import PlatformError


@dataclass(frozen=True)
class Region:
    """A cloud region with per-instance-type BTU prices.

    ``prices`` maps instance-type *names* to USD per BTU; ``transfer_out
    _per_gb`` is the egress price applied to data leaving the region.
    """

    name: str
    prices: Mapping[str, float]
    transfer_out_per_gb: float

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("region name must be non-empty")
        # ``not 0 <= x < inf`` also rejects NaN, which would silently
        # turn every cost into NaN; zero prices model owned capacity
        if not 0 <= self.transfer_out_per_gb < math.inf:
            raise PlatformError(
                f"transfer price in {self.name!r} must be finite and >= 0, "
                f"got {self.transfer_out_per_gb!r}"
            )
        for itype, price in self.prices.items():
            if not 0 <= price < math.inf:
                raise PlatformError(
                    f"price for {itype!r} in {self.name!r} must be finite "
                    f"and >= 0, got {price!r}"
                )

    def price(self, itype: InstanceType | str) -> float:
        """USD per BTU for *itype* in this region."""
        key = itype.name if isinstance(itype, InstanceType) else itype
        try:
            return self.prices[key]
        except KeyError:
            raise PlatformError(
                f"region {self.name!r} has no price for instance type {key!r}"
            ) from None


def _ec2(name: str, small: float, transfer: float) -> Region:
    # Table II follows the small x {1, 2, 4, 8} progression exactly, i.e.
    # the EC2 "cost-per-core x cores" formula the paper cites.
    return Region(
        name=name,
        prices={
            "small": small,
            "medium": 2 * small,
            "large": 4 * small,
            "xlarge": 8 * small,
        },
        transfer_out_per_gb=transfer,
    )


#: Table II, verbatim.
EC2_REGIONS: Dict[str, Region] = {
    r.name: r
    for r in (
        _ec2("us-east-virginia", 0.080, 0.12),
        _ec2("us-west-oregon", 0.080, 0.12),
        _ec2("us-west-california", 0.090, 0.12),
        _ec2("eu-dublin", 0.085, 0.12),
        _ec2("asia-singapore", 0.085, 0.19),
        _ec2("asia-tokyo", 0.092, 0.201),
        _ec2("sa-sao-paulo", 0.115, 0.25),
    )
}

#: cheapest region; the homogeneous experiments run entirely inside it
DEFAULT_REGION = EC2_REGIONS["us-east-virginia"]


def region(name: str) -> Region:
    """Look up a region by name; raises :class:`PlatformError`."""
    try:
        return EC2_REGIONS[name]
    except KeyError:
        raise PlatformError(
            f"unknown region {name!r}; known: {sorted(EC2_REGIONS)}"
        ) from None
