"""BTU billing and transfer pricing.

A VM is billed in whole Billing Time Units (BTU = 3600 s on EC2): any
started BTU is paid in full, and a VM that runs at all pays at least one.
Out-of-region transfers are billed per GB, but only for the slice of the
*monthly cumulative* egress volume that falls inside the EC2 band
``(1 GB, 10 TB]`` (paper Sect. IV-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instance import InstanceType, sealed
from repro.cloud.region import Region
from repro.errors import BillingError

#: default EC2 billing quantum, seconds
BTU_SECONDS = 3600.0

#: free-tier threshold and band ceiling for egress billing, GB
TRANSFER_FREE_GB = 1.0
TRANSFER_BAND_CEILING_GB = 10_240.0  # 10 TB


@sealed
@dataclass(frozen=True)
class BillingModel:
    """Pure billing arithmetic, shared by scheduler and simulator."""

    btu_seconds: float = BTU_SECONDS
    transfer_free_gb: float = TRANSFER_FREE_GB
    transfer_band_ceiling_gb: float = TRANSFER_BAND_CEILING_GB

    def __post_init__(self) -> None:
        if not (0 < self.btu_seconds < math.inf):  # also rejects NaN
            raise BillingError(
                f"BTU must be a positive finite number, got {self.btu_seconds}"
            )
        if not (0 <= self.transfer_free_gb <= self.transfer_band_ceiling_gb):
            raise BillingError("invalid transfer band bounds")

    # ------------------------------------------------------------------
    # VM rent
    # ------------------------------------------------------------------
    def btus(self, uptime_seconds: float) -> int:
        """Whole BTUs paid for an uptime; a VM that ran at all pays >= 1."""
        if uptime_seconds < 0:
            raise BillingError(f"negative uptime {uptime_seconds}")
        if uptime_seconds == 0:
            return 0
        return max(1, math.ceil(uptime_seconds / self.btu_seconds - 1e-9))

    def paid_seconds(self, uptime_seconds: float) -> float:
        """Uptime rounded up to the BTU grid — the denominator of the
        paper's idle-time metric."""
        return self.btus(uptime_seconds) * self.btu_seconds

    def vm_cost(
        self, uptime_seconds: float, itype: InstanceType, region: Region
    ) -> float:
        """USD rent for a VM of *itype* in *region* up for *uptime*."""
        return self.btus(uptime_seconds) * region.price(itype)

    def realized_cost(
        self,
        uptime_seconds: float,
        itype: InstanceType,
        region: Region,
        start: float,
        purchase: "object | None",
        market: "object | None",
        seed: int,
    ) -> float:
        """USD rent of one VM rented at *start*, market-aware.

        With a *market* (a :class:`~repro.market.spot.Market`) and a
        recorded *purchase* option the rent is the market's price
        integral under *seed*; otherwise it is :meth:`vm_cost`, the
        paper's fixed list price per BTU."""
        if market is not None and purchase is not None:
            return market.vm_cost(
                self, seed, start, uptime_seconds, itype, region, purchase
            )
        return self.vm_cost(uptime_seconds, itype, region)

    def paid_window(self, start: float, uptime_seconds: float) -> tuple:
        """The absolute time window actually billed for a rental that
        opened at *start* and ran *uptime* — the integration range for
        time-varying (spot) pricing, where cost is the price integral
        over the paid window rather than ``price × BTUs``."""
        return (start, start + self.paid_seconds(uptime_seconds))

    def remaining_in_btu(self, uptime_seconds: float) -> float:
        """Seconds left before the *next* BTU boundary after ``uptime``.

        This is what the NotExceed policies compare a candidate task
        against: 0 uptime means a full fresh BTU; an exact multiple of
        the BTU also yields a full BTU (the boundary has not been
        crossed into yet).
        """
        if uptime_seconds < 0:
            raise BillingError(f"negative uptime {uptime_seconds}")
        used = math.fmod(uptime_seconds, self.btu_seconds)
        if used < 1e-9 or self.btu_seconds - used < 1e-9:
            return self.btu_seconds
        return self.btu_seconds - used

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer_cost(
        self,
        volume_gb: float,
        src: Region,
        dst: Region,
        monthly_total_gb: float = 0.0,
    ) -> float:
        """Egress cost for shipping *volume_gb* from *src* to *dst*.

        Intra-region transfers are free.  *monthly_total_gb* is the
        volume already billed this month; only the portion of the new
        cumulative total inside ``(free, ceiling]`` is charged, at the
        source region's per-GB price.
        """
        if volume_gb < 0 or monthly_total_gb < 0:
            raise BillingError("transfer volumes must be >= 0")
        if src.name == dst.name or volume_gb == 0:
            return 0.0
        lo = max(monthly_total_gb, self.transfer_free_gb)
        hi = min(monthly_total_gb + volume_gb, self.transfer_band_ceiling_gb)
        billable = max(0.0, hi - lo)
        return billable * src.transfer_out_per_gb
