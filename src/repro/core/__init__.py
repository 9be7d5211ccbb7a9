"""The paper's primary contribution: VM provisioning policies, workflow
scheduling algorithms, and the schedule/metric model tying them to the
cloud substrate."""

from repro.core.schedule import Schedule
from repro.core.builder import ScheduleBuilder, BuilderVM
from repro.core.constraints import CONSTRAINT_NAMES, Constraints, ConstraintViolation
from repro.core.metrics import ScheduleMetrics, compare_to_reference, evaluate
from repro.core.baseline import reference_schedule
from repro.core.provisioning import (
    ProvisioningPolicy,
    OneVMperTask,
    StartParNotExceed,
    StartParExceed,
    AllParNotExceed,
    AllParExceed,
    provisioning_policy,
    PROVISIONING_POLICIES,
)
from repro.core.allocation import (
    SchedulingAlgorithm,
    HeftScheduler,
    LevelScheduler,
    CpaEagerScheduler,
    GainScheduler,
    AllParScheduler,
    AllPar1LnSScheduler,
    AllPar1LnSDynScheduler,
    RoundRobinScheduler,
    LeastLoadScheduler,
    DeadlineScheduler,
    LocalityHeftScheduler,
    PchScheduler,
    pin_regions,
    scheduling_algorithm,
    SCHEDULING_ALGORITHMS,
)
from repro.core.economics import CoRentModel, EnergyModel
from repro.core.bounds import (
    EfficiencyReport,
    cost_lower_bound,
    efficiency,
    makespan_lower_bound,
)
from repro.core.explain import CostExplanation, explain, render_explanation
from repro.core.critical import CriticalReport, realized_critical_path
from repro.core.utilization import UtilizationReport, utilization, parallelism_profile
from repro.core.adaptive import AdaptiveSelector, Goal, recommend
from repro.core.recovery import (
    FailureEvent,
    RecoveryAction,
    RecoveryPolicy,
    RetrySameVM,
    ResubmitFresh,
    ReplanRemaining,
    RECOVERY_POLICIES,
    recovery_policy,
)

__all__ = [
    "Schedule",
    "ScheduleBuilder",
    "BuilderVM",
    "CONSTRAINT_NAMES",
    "Constraints",
    "ConstraintViolation",
    "ScheduleMetrics",
    "compare_to_reference",
    "evaluate",
    "reference_schedule",
    "ProvisioningPolicy",
    "OneVMperTask",
    "StartParNotExceed",
    "StartParExceed",
    "AllParNotExceed",
    "AllParExceed",
    "provisioning_policy",
    "PROVISIONING_POLICIES",
    "SchedulingAlgorithm",
    "HeftScheduler",
    "LevelScheduler",
    "CpaEagerScheduler",
    "GainScheduler",
    "AllParScheduler",
    "AllPar1LnSScheduler",
    "AllPar1LnSDynScheduler",
    "RoundRobinScheduler",
    "LeastLoadScheduler",
    "DeadlineScheduler",
    "CoRentModel",
    "EnergyModel",
    "LocalityHeftScheduler",
    "PchScheduler",
    "pin_regions",
    "EfficiencyReport",
    "cost_lower_bound",
    "efficiency",
    "makespan_lower_bound",
    "CostExplanation",
    "explain",
    "render_explanation",
    "CriticalReport",
    "realized_critical_path",
    "UtilizationReport",
    "utilization",
    "parallelism_profile",
    "scheduling_algorithm",
    "SCHEDULING_ALGORITHMS",
    "AdaptiveSelector",
    "Goal",
    "recommend",
    "FailureEvent",
    "RecoveryAction",
    "RecoveryPolicy",
    "RetrySameVM",
    "ResubmitFresh",
    "ReplanRemaining",
    "RECOVERY_POLICIES",
    "recovery_policy",
]
