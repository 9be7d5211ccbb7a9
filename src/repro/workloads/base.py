"""Execution-time model interface.

A model turns a workflow *shape* into a concrete instance by assigning
every task a reference execution time (seconds on the small instance)
and, optionally, every edge a data volume.  Models are deterministic
functions of ``(workflow, seed)`` so experiment sweeps are reproducible.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple

from repro.workflows.dag import Workflow


class ExecutionTimeModel(abc.ABC):
    """Strategy object producing per-task runtimes for a workflow."""

    #: short name used in experiment configs and reports
    name: str = "base"

    @abc.abstractmethod
    def runtimes(self, wf: Workflow, seed=None) -> Dict[str, float]:
        """Map every task id of *wf* to a reference runtime in seconds."""

    def data_sizes(self, wf: Workflow, seed=None) -> Dict[Tuple[str, str], float]:
        """Map edges to data volumes in GB.

        The default keeps the workflow's own volumes (returns an empty
        override map); stochastic models may replace them.
        """
        return {}


def apply_model(wf: Workflow, model: ExecutionTimeModel, seed=None) -> Workflow:
    """Return a copy of *wf* with the model's runtimes (and data sizes,
    when it provides them) imposed on the fixed shape, in one copy."""
    return wf._copy(model.runtimes(wf, seed), model.data_sizes(wf, seed))
