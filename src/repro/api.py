"""repro.api — the stable, supported surface of the library.

Everything a user script should need lives here, re-exported from the
implementation packages with one blessed spelling each.  Code written
against ``repro.api`` keeps working across internal refactors; names
*not* in :data:`__all__` (module internals, builder plumbing, private
kernels) may move or change between minor versions without notice.

Quickstart::

    import repro.api as api

    platform = api.CloudPlatform.ec2()
    sched = api.HeftScheduler("StartParNotExceed").schedule(
        api.montage(), platform, itype=platform.itype("medium"))
    api.simulate_schedule(sched)

    sweep = api.run_sweep(platform=platform, jobs=2, backend="thread")
    print(api.render_summary(api.summarize(sweep)))

One result protocol
-------------------
Every experiment entry point — :func:`run_sweep`,
:func:`run_fault_sweep`, :func:`run_pricing_sweep`,
:func:`run_service`/:func:`run_service_sweep` and :func:`autotune` —
returns a :class:`ResultBase`: ``.summary()`` renders the human
report, ``.to_json()`` is the JSON-stable (and, for seeded runs,
cross-backend byte-identical) data form, and ``.manifest`` carries the
producing run's reproducibility manifest when one was attached.  Hold
any experiment result through that one shape::

    result = api.run_sweep(jobs=2, backend="thread")   # any entry point
    print(result.summary())
    payload = result.to_json()

Constraints and autotuning
--------------------------
:class:`Constraints` (deadline seconds, budget USD, optional VM cap)
is the library-wide spelling of "an acceptable outcome":
:func:`evaluate`/:func:`compare_to_reference` stamp metrics with a
``feasible`` verdict, the service layer's per-tenant budget admission
is the same object with only ``budget`` set, and :func:`autotune`
searches the (policy, flavor, reduction, recovery, purchase-option)
space for the cheapest configuration whose re-simulated outcome
satisfies them::

    best = api.autotune(constraints=api.Constraints(deadline=7200),
                        workflow_name="montage", seed=0)
    print(best.winner.label, best.winner.cost)

The surface is grouped below:

* **Workflows** — the paper's four shapes plus the extension gallery
  and DAX/DOT interchange.
* **Platform** — the EC2-style cloud model: catalog, regions, billing.
* **Scheduling** — provisioning policies, allocation strategies, and
  the registries that name them.
* **Diagnostics** — lower-bound efficiency, cost explanation,
  realized critical path and utilization of a finished schedule.
* **Constraints** — deadline/budget/VM-cap bounds and the
  feasibility verdict on metrics (:mod:`repro.core.constraints`).
* **Simulation** — the discrete-event replay, online execution,
  perturbation studies, and fault injection/recovery.
* **Experiments** — the paper sweep, replication, fault sweeps,
  summaries and reports, all returning :class:`ResultBase` results.
* **Tune** — the constraint-aware configuration search
  (:mod:`repro.tune`).
* **Service** — the multi-tenant Workflow-as-a-Service mode: shared
  fleet, arrival streams, admission policies and the service loop
  (:mod:`repro.service`).  The indexed fleet kernels (DESIGN.md §14)
  keep this path near-linear in workflows: 1000 workflows/50 tenants
  in ~0.85 wall-seconds, 10k workflows/500 tenants in ~10.5 s
  (``BENCH_service.json``).
* **Observability** — tracing, metrics and run manifests
  (:mod:`repro.obs`).
"""

from __future__ import annotations

# --- workflows ---------------------------------------------------------
from repro.workflows import (
    Task,
    Workflow,
    WorkflowProfile,
    profile,
    montage,
    cstem,
    mapreduce,
    sequential,
    fork_join,
    random_layered,
    epigenomics,
    cybershake,
    ligo,
    sipht,
    bag_of_tasks,
    parse_dax,
    parse_dax_string,
    to_dax,
    to_dot,
)

# --- execution-time models --------------------------------------------
from repro.workloads import (
    ParetoModel,
    BestCaseModel,
    WorstCaseModel,
    ConstantModel,
    apply_model,
)

# --- platform ----------------------------------------------------------
from repro.cloud import (
    CloudPlatform,
    InstanceType,
    instance_type,
    Region,
    EC2_REGIONS,
    BillingModel,
    NetworkModel,
    VM,
)

# --- scheduling --------------------------------------------------------
from repro.core import (
    Schedule,
    ScheduleMetrics,
    Constraints,
    ConstraintViolation,
    evaluate,
    compare_to_reference,
    reference_schedule,
    ProvisioningPolicy,
    provisioning_policy,
    SchedulingAlgorithm,
    scheduling_algorithm,
    HeftScheduler,
    CpaEagerScheduler,
    GainScheduler,
    AllParScheduler,
    AllPar1LnSScheduler,
    AllPar1LnSDynScheduler,
    DeadlineScheduler,
    AdaptiveSelector,
    Goal,
    recommend,
    RecoveryPolicy,
    RECOVERY_POLICIES,
    recovery_policy,
    # schedule diagnostics
    efficiency,
    explain,
    render_explanation,
    realized_critical_path,
    utilization,
)

# --- simulation --------------------------------------------------------
from repro.simulator import (
    Simulator,
    simulate_schedule,
    SimulationResult,
    run_with_faults,
    FaultPlan,
    FaultStats,
    RobustnessReport,
    robustness_study,
    OnlineCloudExecutor,
    OnlineResult,
    run_online,
)

# --- experiments -------------------------------------------------------
from repro.experiments import (
    ResultBase,
    StrategySpec,
    paper_strategies,
    paper_workflows,
    strategy,
    Scenario,
    paper_scenarios,
    scenario,
    SweepResult,
    run_strategy,
    run_sweep,
    make_backend,
    replicate,
    render_replication,
    summarize,
    most_stable,
    render_summary,
    full_report,
    save_sweep,
    load_sweep,
    diff_sweeps,
    export_all,
)
from repro.experiments.faults import (
    FaultSweepResult,
    run_fault_sweep,
    render_fault_sweep,
)

# --- spot markets, cold starts, variable pricing -----------------------
from repro.market import (
    ConstantPrice,
    StepTracePrice,
    MeanRevertingPrice,
    price_path,
    PurchaseOption,
    ON_DEMAND,
    spot,
    Market,
    SpotInterruptionPlan,
    RebidHigher,
    FallbackOnDemand,
)
from repro.experiments.scenarios import (
    PriceScenario,
    price_scenario,
    price_scenarios,
)
from repro.experiments.pricing import (
    BootSetting,
    PricingSweepResult,
    paper_boot_settings,
    run_pricing_sweep,
    render_pricing_sweep,
)

# --- constraint-aware autotuning ---------------------------------------
from repro.tune import (
    autotune,
    Candidate,
    CandidateOutcome,
    TuneResult,
    TuneSpace,
)

# --- multi-tenant service (WaaS) ---------------------------------------
from repro.service import (
    FleetManager,
    FleetVM,
    WorkflowRequest,
    poisson_arrivals,
    trace_arrivals,
    AdmissionPolicy,
    admission_policy,
    WorkflowService,
    ServiceResult,
    run_service,
)
from repro.experiments.service import (
    ServiceSweepResult,
    run_service_sweep,
    render_service,
    render_service_sweep,
)

# --- observability -----------------------------------------------------
from repro.obs import (
    Tracer,
    NULL_TRACER,
    ensure_tracer,
    validate_chrome_trace,
    MetricsRegistry,
    build_manifest,
    write_manifest,
    load_manifest,
    manifest_argv,
    config_hash,
)

# --- errors ------------------------------------------------------------
from repro.errors import (
    ReproError,
    WorkflowError,
    WorkflowParseError,
    PlatformError,
    BillingError,
    SchedulingError,
    InvalidScheduleError,
    BudgetExceededError,
    SimulationError,
    ExperimentError,
)

from repro import __version__

__all__ = [
    # workflows
    "Task",
    "Workflow",
    "WorkflowProfile",
    "profile",
    "montage",
    "cstem",
    "mapreduce",
    "sequential",
    "fork_join",
    "random_layered",
    "epigenomics",
    "cybershake",
    "ligo",
    "sipht",
    "bag_of_tasks",
    "parse_dax",
    "parse_dax_string",
    "to_dax",
    "to_dot",
    # execution-time models
    "ParetoModel",
    "BestCaseModel",
    "WorstCaseModel",
    "ConstantModel",
    "apply_model",
    # platform
    "CloudPlatform",
    "InstanceType",
    "instance_type",
    "Region",
    "EC2_REGIONS",
    "BillingModel",
    "NetworkModel",
    "VM",
    # scheduling
    "Schedule",
    "ScheduleMetrics",
    "Constraints",
    "ConstraintViolation",
    "evaluate",
    "compare_to_reference",
    "reference_schedule",
    "ProvisioningPolicy",
    "provisioning_policy",
    "SchedulingAlgorithm",
    "scheduling_algorithm",
    "HeftScheduler",
    "CpaEagerScheduler",
    "GainScheduler",
    "AllParScheduler",
    "AllPar1LnSScheduler",
    "AllPar1LnSDynScheduler",
    "DeadlineScheduler",
    "AdaptiveSelector",
    "Goal",
    "recommend",
    "RecoveryPolicy",
    "RECOVERY_POLICIES",
    "recovery_policy",
    # schedule diagnostics
    "efficiency",
    "explain",
    "render_explanation",
    "realized_critical_path",
    "utilization",
    # simulation
    "Simulator",
    "simulate_schedule",
    "SimulationResult",
    "run_with_faults",
    "FaultPlan",
    "FaultStats",
    "RobustnessReport",
    "robustness_study",
    "OnlineCloudExecutor",
    "OnlineResult",
    "run_online",
    # experiments
    "ResultBase",
    "StrategySpec",
    "paper_strategies",
    "paper_workflows",
    "strategy",
    "Scenario",
    "paper_scenarios",
    "scenario",
    "SweepResult",
    "run_strategy",
    "run_sweep",
    "make_backend",
    "replicate",
    "render_replication",
    "summarize",
    "most_stable",
    "render_summary",
    "full_report",
    "save_sweep",
    "load_sweep",
    "diff_sweeps",
    "export_all",
    "FaultSweepResult",
    "run_fault_sweep",
    "render_fault_sweep",
    # spot markets, cold starts, variable pricing
    "ConstantPrice",
    "StepTracePrice",
    "MeanRevertingPrice",
    "price_path",
    "PurchaseOption",
    "ON_DEMAND",
    "spot",
    "Market",
    "SpotInterruptionPlan",
    "RebidHigher",
    "FallbackOnDemand",
    "PriceScenario",
    "price_scenario",
    "price_scenarios",
    "BootSetting",
    "PricingSweepResult",
    "paper_boot_settings",
    "run_pricing_sweep",
    "render_pricing_sweep",
    # constraint-aware autotuning
    "autotune",
    "Candidate",
    "CandidateOutcome",
    "TuneResult",
    "TuneSpace",
    # multi-tenant service (WaaS)
    "FleetManager",
    "FleetVM",
    "WorkflowRequest",
    "poisson_arrivals",
    "trace_arrivals",
    "AdmissionPolicy",
    "admission_policy",
    "WorkflowService",
    "ServiceResult",
    "run_service",
    "ServiceSweepResult",
    "run_service_sweep",
    "render_service",
    "render_service_sweep",
    # observability
    "Tracer",
    "NULL_TRACER",
    "ensure_tracer",
    "validate_chrome_trace",
    "MetricsRegistry",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_argv",
    "config_hash",
    # errors
    "ReproError",
    "WorkflowError",
    "WorkflowParseError",
    "PlatformError",
    "BillingError",
    "SchedulingError",
    "InvalidScheduleError",
    "BudgetExceededError",
    "SimulationError",
    "ExperimentError",
    "__version__",
]
