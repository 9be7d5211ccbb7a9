"""The cloud platform facade bundling catalog, regions, billing and
network — the single object schedulers and the simulator consult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.cloud.billing import BillingModel
from repro.cloud.instance import INSTANCE_TYPES, InstanceType, instance_type
from repro.cloud.network import NetworkModel
from repro.cloud.region import DEFAULT_REGION, EC2_REGIONS, Region
from repro.errors import PlatformError
from repro.workflows.task import Task


@dataclass(frozen=True)
class CloudPlatform:
    """An immutable description of the simulated IaaS provider.

    The default instance is the paper's platform: the EC2 catalog and
    Table II regions, BTU = 3600 s, store-and-forward network, boot time
    zero (static scheduling + pre-booting).
    """

    regions: Mapping[str, Region] = field(default_factory=lambda: dict(EC2_REGIONS))
    default_region: Region = DEFAULT_REGION
    billing: BillingModel = field(default_factory=BillingModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    catalog: Mapping[str, InstanceType] = field(
        default_factory=lambda: dict(INSTANCE_TYPES)
    )
    #: VM boot duration. The paper ignores boot via a pre-booting
    #: strategy (static scheduling); set ``prebooted=False`` to model
    #: cold starts instead, where a fresh VM's first task is delayed by
    #: ``boot_seconds`` after it becomes ready (EC2 boots are < 2 min
    #: and independent of fleet size, per Mao & Humphrey).
    boot_seconds: float = 0.0
    prebooted: bool = True
    #: ambient price environment (a :class:`repro.market.spot.Market`,
    #: typed loosely to keep the cloud layer free of upward imports).
    #: ``None`` is the paper's fixed-price on-demand market.  Executors
    #: pick an ambient market up automatically (through
    #: ``FaultRuntime.plan_for``); a market inside an explicit fault
    #: plan takes precedence.
    market: "object | None" = None

    def __post_init__(self) -> None:
        if not self.catalog:
            raise PlatformError("instance catalog must not be empty")
        if self.default_region.name not in self.regions:
            raise PlatformError(
                f"default region {self.default_region.name!r} not in regions"
            )
        if not 0 <= self.boot_seconds < math.inf:  # rejects NaN too
            raise PlatformError("boot_seconds must be finite and >= 0")
        for r in self.regions.values():
            for itype in self.catalog.values():
                r.price(itype)  # raises if a price is missing
        # Memoized runtime/transfer lookups.  Schedulers call these
        # O(V·E) times per run with a handful of distinct keys, so the
        # caches stay small while removing the dispatch overhead from
        # the hot path.  The dataclass is frozen, hence the
        # object.__setattr__; both inputs and the platform itself are
        # immutable, so entries never go stale.  Keys hold the flavor
        # fields each value reads (speed-up, link speeds), never the
        # flavor's name, so a custom flavor that reuses a catalog name
        # gets its own entry; hashing the frozen dataclass instead
        # re-hashes all five fields per call, which profiles slower
        # than the lookups the cache is meant to save.
        object.__setattr__(self, "_runtime_cache", {})
        object.__setattr__(self, "_transfer_cache", {})

    @classmethod
    def ec2(cls, **overrides) -> "CloudPlatform":
        """The paper's EC2 platform; keyword overrides for variants."""
        return cls(**overrides)

    def with_market(self, market: "object | None") -> "CloudPlatform":
        """This platform under another price environment (or none)."""
        import dataclasses

        return dataclasses.replace(self, market=market)

    # ------------------------------------------------------------------
    @property
    def btu_seconds(self) -> float:
        return self.billing.btu_seconds

    def itype(self, name: str) -> InstanceType:
        key = name.lower()
        if key in self.catalog:
            return self.catalog[key]
        return instance_type(name)

    def region(self, name: str) -> Region:
        try:
            return self.regions[name]
        except KeyError:
            raise PlatformError(f"unknown region {name!r}") from None

    def runtime(self, task: Task, itype: InstanceType) -> float:
        """Execution time of *task* on *itype* (reference work / speedup).

        Memoized on ``(work, speedup)``; see ``__post_init__``.
        """
        cache: Dict[Tuple[float, float], float] = self._runtime_cache
        key = (task.work, itype.speedup)
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = itype.runtime(task.work)
            return value

    def transfer_time(
        self,
        size_gb: float,
        src: InstanceType,
        dst: InstanceType,
        *,
        same_vm: bool = False,
        src_region: Region | None = None,
        dst_region: Region | None = None,
    ) -> float:
        """Data-shipping time between two placements on this platform.

        Memoized on ``(size, link speeds, locality)``; see
        ``__post_init__``.
        """
        src_region = src_region or self.default_region
        dst_region = dst_region or self.default_region
        same_region = src_region.name == dst_region.name
        cache = self._transfer_cache
        key = (size_gb, src.link_gbps, dst.link_gbps, same_vm, same_region)
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = self.network.transfer_time(
                size_gb,
                src,
                dst,
                same_vm=same_vm,
                same_region=same_region,
            )
            return value

    def cheapest_region(self, itype: InstanceType | None = None) -> Region:
        """Region with the lowest price for *itype* (small by default)."""
        key = (itype or self.itype("small")).name
        return min(self.regions.values(), key=lambda r: (r.price(key), r.name))
