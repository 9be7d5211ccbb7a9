"""Feitelson-style Pareto workload model (paper Sect. IV-B, Fig. 3).

The paper draws execution times from a Pareto distribution with shape
``alpha = 2`` and task (data) sizes with ``alpha = 1.3``, both with
scale 500.  For a (Type I) Pareto with scale ``x_m`` and shape ``a``:

    CDF(x) = 1 - (x_m / x) ** a      for x >= x_m

so runtimes start at 500 s and the CDF reaches ~0.98 by 3500-4000 s,
matching the paper's Figure 3.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.util.rng import ensure_rng
from repro.workloads.base import ExecutionTimeModel
from repro.workflows.dag import Workflow

#: shape parameter for execution times (Feitelson / paper Sect. IV-B)
FEITELSON_RUNTIME_SHAPE = 2.0
#: shape parameter for task data sizes
FEITELSON_SIZE_SHAPE = 1.3
#: common scale parameter (minimum value of the distribution)
FEITELSON_SCALE = 500.0


def pareto_cdf(x, shape: float = FEITELSON_RUNTIME_SHAPE, scale: float = FEITELSON_SCALE):
    """Closed-form Type-I Pareto CDF; accepts scalars or arrays."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    x = np.asarray(x, dtype=float)
    out = 1.0 - (scale / np.maximum(x, scale)) ** shape
    return out if out.ndim else float(out)


def pareto_sample(rng: np.random.Generator, n: int, shape: float, scale: float) -> np.ndarray:
    """Draw *n* Type-I Pareto values (support ``[scale, inf)``).

    ``numpy``'s :meth:`Generator.pareto` is the Lomax (Pareto II)
    variant starting at 0; shifting by one and multiplying by the scale
    recovers the classic Pareto the paper uses.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return scale * (1.0 + rng.pareto(shape, size=n))


class ParetoModel(ExecutionTimeModel):
    """Execution times ~ Pareto(shape=2, scale=500) per the paper."""

    name = "pareto"

    def __init__(
        self,
        shape: float = FEITELSON_RUNTIME_SHAPE,
        scale: float = FEITELSON_SCALE,
        cap: float | None = None,
    ) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = shape
        self.scale = scale
        #: optional truncation (heavy tails occasionally produce day-long
        #: tasks; the paper's Fig. 3 x-axis stops at 4000 s)
        self.cap = cap

    def runtimes(self, wf: Workflow, seed=None) -> Dict[str, float]:
        rng = ensure_rng(seed)
        draws = pareto_sample(rng, len(wf), self.shape, self.scale)
        if self.cap is not None:
            draws = np.minimum(draws, self.cap)
        # task_ids is deterministic (insertion order), so the mapping is
        # reproducible for a fixed seed.
        return dict(zip(wf.task_ids, map(float, draws)))


class ParetoDataModel(ParetoModel):
    """Pareto runtimes *and* Pareto edge data sizes (shape 1.3).

    Data draws are in **MB** (scale 500 MB) and converted to GB, giving
    the data-intensive variant of the paper's workload.
    """

    name = "pareto+data"

    def __init__(
        self,
        shape: float = FEITELSON_RUNTIME_SHAPE,
        scale: float = FEITELSON_SCALE,
        size_shape: float = FEITELSON_SIZE_SHAPE,
        size_scale_mb: float = FEITELSON_SCALE,
        cap: float | None = None,
    ) -> None:
        super().__init__(shape, scale, cap)
        if size_shape <= 0 or size_scale_mb <= 0:
            raise ValueError("size shape and scale must be positive")
        self.size_shape = size_shape
        self.size_scale_mb = size_scale_mb

    def data_sizes(self, wf: Workflow, seed=None) -> Dict[Tuple[str, str], float]:
        # Independent stream: perturbing the runtime draw must not change
        # the size draw of unrelated edges. The derivation must be stable
        # across processes, so no Python hash() (its salt varies per run).
        if seed is None:
            rng = ensure_rng(None)
        else:
            if isinstance(seed, np.random.Generator):
                # derive a child without disturbing the caller's stream
                seed = int(seed.bit_generator.state["state"]["state"]) % 2**63
            rng = ensure_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
        edges = wf._edge_pairs()  # read from the columns of an array build
        draws = pareto_sample(rng, len(edges), self.size_shape, self.size_scale_mb)
        return {e: float(mb) / 1024.0 for e, mb in zip(edges, draws)}
