"""repro.service — multi-tenant Workflow-as-a-Service simulation.

The paper evaluates provisioning/scheduling one workflow at a time.
This package turns the repo into a long-running simulated *service* in
the resource-sharing WaaS model of Hilman et al. (arXiv:1903.01113):

* a :class:`~repro.service.fleet.FleetManager` owns a long-lived VM
  fleet shared *across* workflow submissions (rent, reuse, idle-expiry
  at BTU boundaries, per-tenant billing attribution) — indexed with
  stamp-guarded lazy heaps (DESIGN.md §14) so placement-time fleet
  queries never scan the dead roster;
* an arrival stream (:mod:`repro.service.arrivals`) delivers workflow
  submissions from many tenants, Poisson- or trace-driven;
* admission policies (:mod:`repro.service.admission`) decide, per
  submission, admit / queue / reject — FIFO, per-tenant fair-share, or
  budget-guarded in the hard-constraint framing of Thai et al.
  (arXiv:1507.05470);
* the service loop (:mod:`repro.service.loop`) schedules each admitted
  workflow against the live fleet with the paper's five provisioning
  policies, via per-workflow online executors multiplexed onto one
  discrete-event simulator.

Everything is seed-deterministic: the same requests and seed produce
byte-identical metrics on every execution backend.

Exports resolve lazily (PEP 562): the online executor imports
``repro.service.fleet``, so an eager ``from .loop import ...`` here
would re-enter ``repro.simulator.online`` mid-initialisation.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "FleetManager": "repro.service.fleet",
    "FleetVM": "repro.service.fleet",
    "OwnerBill": "repro.service.fleet",
    "FleetRollup": "repro.service.fleet",
    "WorkflowRequest": "repro.service.arrivals",
    "poisson_arrivals": "repro.service.arrivals",
    "trace_arrivals": "repro.service.arrivals",
    "AdmissionPolicy": "repro.service.admission",
    "ADMISSION_POLICIES": "repro.service.admission",
    "admission_policy": "repro.service.admission",
    "FifoAdmission": "repro.service.admission",
    "FairShareAdmission": "repro.service.admission",
    "BudgetGuardAdmission": "repro.service.admission",
    "WorkflowService": "repro.service.loop",
    "WorkflowReport": "repro.service.loop",
    "TenantReport": "repro.service.loop",
    "ServiceResult": "repro.service.loop",
    "run_service": "repro.service.loop",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
