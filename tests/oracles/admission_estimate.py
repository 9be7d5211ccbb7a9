"""Builder-based admission estimate: the oracle for the closed form.

:func:`repro.service.admission.default_estimator` prices a request's
``OneVMperTask`` plan in one topological pass.  This is the plan it
replaces: a full static :class:`~repro.core.builder.ScheduleBuilder`
run, frozen into a :class:`~repro.core.schedule.Schedule` and priced by
``Schedule.rent_cost``.  ``tests/service/test_estimate_oracle.py``
asserts the two agree with ``==`` on the price.
"""

from __future__ import annotations

from repro.core.builder import ScheduleBuilder
from repro.core.provisioning.base import provisioning_policy


def builder_estimate(request, service) -> float:
    """Rent of *request*'s ``OneVMperTask`` plan, via the builder."""
    builder = ScheduleBuilder(
        request.workflow,
        service.platform,
        service.itype,
        region=service.region,
    )
    policy = provisioning_policy("OneVMperTask")
    for tid in request.workflow.topological_order():
        builder.begin_task(tid)
        builder.place(tid, policy.select_vm(tid, builder))
    return builder.build("estimate", "OneVMperTask").rent_cost
