"""Store-and-forward network model (paper Sect. IV-A).

``transfer_time = size / bandwidth + latency``; the effective bandwidth
between two VMs is the slower of their NIC links (1 Gb/s for small and
medium instances, 10 Gb/s for large and xlarge).  Bandwidth sharing is
deliberately not modelled, matching the paper's simplification.
Transfers between tasks on the *same VM* are free and instantaneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instance import InstanceType, sealed
from repro.errors import PlatformError

_GB_TO_GBIT = 8.0


@sealed
@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the simulated interconnect."""

    intra_region_latency_s: float = 0.1
    inter_region_latency_s: float = 0.5

    def __post_init__(self) -> None:
        latencies = (self.intra_region_latency_s, self.inter_region_latency_s)
        if not all(0 <= x < math.inf for x in latencies):  # rejects NaN too
            raise PlatformError(f"latencies must be finite and >= 0: {latencies}")

    def bandwidth_gbps(self, src: InstanceType, dst: InstanceType) -> float:
        """Bottleneck link speed between two instance types."""
        return min(src.link_gbps, dst.link_gbps)

    def transfer_time(
        self,
        size_gb: float,
        src: InstanceType,
        dst: InstanceType,
        same_vm: bool = False,
        same_region: bool = True,
    ) -> float:
        """Seconds to ship *size_gb* between two placements."""
        if size_gb < 0:
            raise PlatformError(f"negative transfer size {size_gb}")
        if same_vm:
            return 0.0
        latency = (
            self.intra_region_latency_s if same_region else self.inter_region_latency_s
        )
        if size_gb == 0:
            # A pure control dependency still pays one latency.
            return latency
        return size_gb * _GB_TO_GBIT / self.bandwidth_gbps(src, dst) + latency
