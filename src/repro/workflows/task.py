"""The unit of work scheduled on a VM.

A task's ``work`` is its execution time, in seconds, on the *reference*
instance (the paper's EC2 *small*, speed-up 1.0); running on a faster
instance divides it by that instance's speed-up.  Data exchanged with a
successor lives on the dependency edge (see :class:`repro.workflows.dag.
Workflow`), not on the task, because Montage-style workflows send
different files to different children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import WorkflowError


@dataclass(frozen=True)
class Task:
    """An atomic workflow task.

    Parameters
    ----------
    id:
        Unique (within a workflow) non-empty identifier.
    work:
        Execution time in seconds on the reference (small, speed-up 1.0)
        instance. Must be positive and finite: zero-length tasks make
        BTU/idle accounting degenerate, infinite ones overflow the BTU
        rounding, and the paper's models never produce either.
    category:
        Optional transformation name (``mProject``, ``map``...); used by
        generators and the DAX writer, never by the schedulers.
    attrs:
        Free-form metadata, carried around untouched.
    """

    id: str
    work: float
    category: str = ""
    attrs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise WorkflowError(f"task id must be a non-empty string, got {self.id!r}")
        if not (0 < self.work < math.inf):  # also rejects NaN
            raise WorkflowError(
                f"task {self.id!r}: work must be a positive finite number, "
                f"got {self.work!r}"
            )

    def with_work(self, work: float) -> "Task":
        """Copy of this task with a different reference execution time."""
        return Task(self.id, work, self.category, dict(self.attrs))

    def runtime_on(self, speedup: float) -> float:
        """Execution time on an instance with the given *speedup* factor."""
        if speedup <= 0:
            raise WorkflowError(f"speedup must be positive, got {speedup}")
        return self.work / speedup
