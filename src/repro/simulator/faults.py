"""Composable, seed-deterministic fault processes for the simulator.

The paper assumes perfectly reliable, pre-booted VMs; this module models
the three failure modes a real IaaS deployment must absorb:

* **VM boot failure / delayed boot** — an acquisition request fails (and
  is re-issued) or the boot takes longer than nominal;
* **VM crash** — the instance dies at a random uptime (spot-revocation
  style); the paid rent runs to the BTU boundary that contains the
  crash, exactly as a revoked on-demand instance is billed;
* **transient task failure** — one execution attempt of a task dies
  partway through and must be recovered (retry / resubmit / replan, see
  :mod:`repro.core.recovery`).

Determinism contract
--------------------
Every random draw is taken from a private stream keyed by
``(plan seed, purpose, entity identity, attempt number)`` — never from a
shared generator — so outcomes depend only on *what* is being sampled,
not on the order in which the event loop happens to ask.  Identical
seeds therefore reproduce identical faults, traces, and recovery
decisions across the serial, thread, and process execution backends.

A plan whose probabilities are all zero draws nothing and injects
nothing: executor and online-scheduler results are byte-identical to a
run without any plan (regression-tested).

Runtime
-------
A :class:`FaultRuntime` is what one run executes under once a plan (or
an ambient platform market) is in force: the recovery policy, the
:class:`FaultStats` ledger, the spot interruption process and the
default purchase option.  Both executors call it for every job the
fault layer adds — arming crashes and spot reclamations at rent, the
actual duration of a resumed attempt, the failed-attempt step (its
accounting, the recovery decision and its log line), the realized rent
of each VM, and the fault counters — and keep only their own timing and
placement rules.  Both keep each task's state in a :class:`TaskRecord`.
A run with no plan and no market has no runtime, so its per-task paths
never reach this layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.recovery import (
    FailureEvent,
    RecoveryAction,
    RecoveryPolicy,
    recovery_policy,
)
from repro.errors import FaultError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.billing import BillingModel
    from repro.cloud.instance import InstanceType
    from repro.cloud.region import Region
    from repro.market.spot import Market, SpotInterruptionPlan
    from repro.obs.metrics import MetricsRegistry
    from repro.simulator.engine import Simulator


def _stream(seed: int, *key) -> np.random.Generator:
    """A private generator for one sampling decision.

    The key is hashed (stable across processes and platforms — python's
    ``hash`` is salted, so it is *not* used) into extra entropy words for
    a :class:`~numpy.random.SeedSequence` rooted at the plan seed.
    """
    text = "\x1f".join(str(k) for k in key)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible fault environment for a simulated run.

    All processes are optional and independently composable; the default
    instance injects nothing.  ``seed`` selects the fault *sample*, so a
    replication layer can hold the fault intensity fixed and vary only
    the seed.
    """

    seed: int = 0
    #: probability that one execution attempt of a task fails partway
    task_fail_prob: float = 0.0
    #: per-second hazard of a VM crash (exponential uptime-to-crash);
    #: e.g. ``1/7200`` means a mean time-to-crash of two BTUs
    vm_crash_rate: float = 0.0
    #: probability that one VM acquisition (boot) attempt fails
    boot_fail_prob: float = 0.0
    #: relative std-dev of the multiplicative (log-normal, mean-1) noise
    #: on boot duration; 0 keeps boots at their nominal length
    boot_delay_rel_std: float = 0.0
    #: price environment (a :class:`~repro.market.spot.Market`); when
    #: set, VM cost is the price integral over paid BTUs and spot VMs
    #: are preempted at price-crossing times drawn from the same stream
    #: (seeded by this plan's seed, like every other fault process)
    market: Optional["Market"] = None
    #: extra cold-start seconds added to the platform's nominal boot
    #: time for every cold (non-warm-pool) acquisition
    boot_cold_seconds: float = 0.0
    #: shape of the boot-delay noise: ``"lognormal"`` (the historical
    #: mean-1 multiplicative noise) or ``"deterministic"`` (exact base
    #: durations — calibrated-trace scenarios)
    boot_delay_dist: str = "lognormal"
    #: per-flavor warm pool: the first this-many acquisitions of each
    #: flavor boot warm (in ``boot_warm_seconds``) instead of cold
    boot_warm_pool: int = 0
    #: boot duration of a warm-pool hit, seconds
    boot_warm_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.task_fail_prob < 1.0:
            raise SimulationError(
                f"task_fail_prob must be in [0, 1), got {self.task_fail_prob}"
            )
        if not 0.0 <= self.boot_fail_prob < 1.0:
            raise SimulationError(
                f"boot_fail_prob must be in [0, 1), got {self.boot_fail_prob}"
            )
        # ``0 <= x < inf`` is False for NaN too, so a non-finite value
        # fails here, not deep in the event loop as an unschedulable time
        if not 0.0 <= self.vm_crash_rate < math.inf:
            raise SimulationError(
                f"vm_crash_rate must be finite and >= 0, got {self.vm_crash_rate}"
            )
        if not 0.0 <= self.boot_delay_rel_std < math.inf:
            raise SimulationError(
                "boot_delay_rel_std must be finite and >= 0, "
                f"got {self.boot_delay_rel_std}"
            )
        for name in ("boot_cold_seconds", "boot_warm_seconds"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise SimulationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        if self.boot_warm_pool < 0:
            raise SimulationError(
                f"boot_warm_pool must be >= 0, got {self.boot_warm_pool}"
            )
        if self.boot_delay_dist not in ("lognormal", "deterministic"):
            raise SimulationError(
                f"boot_delay_dist must be 'lognormal' or 'deterministic', "
                f"got {self.boot_delay_dist!r}"
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that injects nothing (the explicit zero-fault control)."""
        return cls()

    @property
    def enabled(self) -> bool:
        """Whether any fault process can actually fire."""
        return (
            self.task_fail_prob > 0
            or self.vm_crash_rate > 0
            or self.boot_fail_prob > 0
            or self.boot_delay_rel_std > 0
            or self.market is not None
            or self.boot_cold_seconds > 0
            or self.boot_warm_pool > 0
        )

    def spot_plan(self) -> Optional["SpotInterruptionPlan"]:
        """The price-correlated interruption process of this plan's
        market, seeded like every other fault process; ``None`` without
        a market."""
        if self.market is None:
            return None
        from repro.market.spot import SpotInterruptionPlan

        return SpotInterruptionPlan(self.market, self.seed)

    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every process scaled by *intensity* (>= 0).

        The fault-intensity axis of the experiment grid: 0 disables all
        processes, 1 is the plan itself.  Probabilities are capped just
        below 1 so a run always terminates almost surely.  Cold-start
        seconds scale with the intensity; the market, warm-pool, and
        distribution-shape fields are structural configuration and carry
        through unchanged (``dataclasses.replace`` preserves every field
        not listed here, so new axes cannot be silently dropped).
        """
        if intensity < 0:
            raise SimulationError(f"intensity must be >= 0, got {intensity}")
        cap = 0.99
        return dataclasses.replace(
            self,
            task_fail_prob=min(self.task_fail_prob * intensity, cap),
            vm_crash_rate=self.vm_crash_rate * intensity,
            boot_fail_prob=min(self.boot_fail_prob * intensity, cap),
            boot_delay_rel_std=self.boot_delay_rel_std * intensity,
            boot_cold_seconds=self.boot_cold_seconds * intensity,
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same fault environment, re-sampled under another seed."""
        return dataclasses.replace(self, seed=int(seed))

    # ------------------------------------------------------------------
    # sampling (all deterministic in (seed, key))
    # ------------------------------------------------------------------
    def task_attempt(self, task_id: str, attempt: int) -> Optional[float]:
        """Outcome of one execution attempt of *task_id*.

        ``None`` means the attempt succeeds; a float in (0, 1) is the
        fraction of the attempt's duration after which it fails.
        """
        if self.task_fail_prob <= 0:
            return None
        rng = _stream(self.seed, "task", task_id, attempt)
        if rng.random() >= self.task_fail_prob:
            return None
        # uniform over the open unit interval so a failed attempt always
        # wastes some, but never all, of its duration
        return float(rng.uniform(1e-3, 1.0 - 1e-3))

    def vm_crash_uptime(self, vm_key: str) -> float:
        """Uptime at which the VM identified by *vm_key* crashes.

        ``inf`` (no crash within any horizon) when the crash process is
        disabled; otherwise an exponential draw with the plan's hazard.
        """
        if self.vm_crash_rate <= 0:
            return math.inf
        rng = _stream(self.seed, "crash", vm_key)
        return float(rng.exponential(1.0 / self.vm_crash_rate))

    def boot_outcome(self, vm_key: str, attempt: int) -> Tuple[bool, float]:
        """Outcome of one boot attempt: ``(fails, delay_factor)``.

        ``delay_factor`` multiplies the platform's nominal boot time
        (mean-1 log-normal noise); it is exactly 1.0 when the delay
        process is disabled.
        """
        fails = False
        factor = 1.0
        if self.boot_fail_prob > 0 or self.boot_delay_rel_std > 0:
            rng = _stream(self.seed, "boot", vm_key, attempt)
            if self.boot_fail_prob > 0:
                fails = bool(rng.random() < self.boot_fail_prob)
            if self.boot_delay_rel_std > 0:
                sigma2 = np.log1p(self.boot_delay_rel_std**2)
                factor = float(rng.lognormal(-sigma2 / 2.0, np.sqrt(sigma2)))
        return fails, factor

    def boot_delay_outcome(
        self,
        vm_key: str,
        attempt: int,
        nominal_seconds: float,
        warm: bool = False,
    ) -> Tuple[bool, float]:
        """Outcome of one boot attempt: ``(fails, delay_seconds)``.

        The cold-start generalization of :meth:`boot_outcome`: the base
        duration is the platform's *nominal_seconds* plus
        ``boot_cold_seconds`` — or ``boot_warm_seconds`` for a warm-pool
        hit — then shaped by ``boot_delay_dist`` (``"deterministic"``
        keeps the base exact; ``"lognormal"`` applies the historical
        mean-1 noise).  With all cold-start fields at their defaults the
        delay is exactly ``nominal × factor``, byte-identical to the
        pre-market boot path.
        """
        fails, factor = self.boot_outcome(vm_key, attempt)
        if warm:
            base = self.boot_warm_seconds
        else:
            base = nominal_seconds + self.boot_cold_seconds
        if self.boot_delay_dist == "deterministic":
            factor = 1.0
        return fails, base * factor


#: the phases of a dispatched task, and the phases each may move to
#: next.  A replayed task is ``queued`` (waiting for its inputs or its
#: VM), ``running`` or ``done``.  An online task is ``placed`` (holding
#: a reservation), ``retry`` (backing off on the same VM, still on its
#: roster), ``redispatch`` (backing off until re-placed) or ``done``.
QUEUED, RUNNING, DONE = "queued", "running", "done"
PLACED, RETRY, REDISPATCH = "placed", "retry", "redispatch"
MOVES = {
    QUEUED: (RUNNING,),
    RUNNING: (DONE, QUEUED),
    PLACED: (DONE, RETRY, REDISPATCH),
    RETRY: (PLACED, REDISPATCH),
    REDISPATCH: (PLACED,),
    DONE: (),
}


@dataclass(slots=True)
class TaskRecord:
    """One dispatched task's state, which each executor extends with
    its own timing and placement fields.

    ``attempt`` counts failed attempts plus one: only
    :meth:`FaultRuntime.attempt_failed` bumps it, and it keys the fault
    draws and the give-up limit.  ``gen`` is the placement generation:
    an end, failure or retry event carries the ``gen`` it was scheduled
    under, and one carrying another is stale.
    """

    phase: str
    attempt: int = 1
    gen: int = 1

    def move(self, task_id: str, phase: str) -> None:
        """The one way a task changes phase; an illegal move is a bug."""
        if phase not in MOVES[self.phase]:
            raise SimulationError(
                f"task {task_id!r} cannot move from {self.phase!r} to {phase!r}"
            )
        self.phase = phase


@dataclass
class FaultStats:
    """Robustness accounting for one fault-injected run."""

    task_failures: int = 0
    vm_crashes: int = 0
    boot_failures: int = 0
    #: spot VMs reclaimed by a price crossing (market runs only)
    preemptions: int = 0
    #: reclamation warnings delivered before a kill
    grace_warnings: int = 0
    #: recovery decisions that changed the purchase option (rebids and
    #: on-demand fallbacks)
    rebids: int = 0
    retries: int = 0
    resubmits: int = 0
    replans: int = 0
    #: execution seconds burnt by attempts that did not complete
    wasted_task_seconds: float = 0.0
    #: paid BTU-seconds that produced no completed task execution
    #: (idle gaps, failed attempts, crashed-VM tails to the boundary)
    wasted_btu_seconds: float = 0.0
    #: total paid seconds (uptime ceiled to the BTU grid) over all VMs
    paid_seconds: float = 0.0
    #: realized rent, with crashed VMs billed to their BTU boundary
    realized_cost: float = 0.0
    #: recovery decision log, e.g. ``"retry:t3@120.000"`` — compared
    #: verbatim by the determinism tests
    decisions: List[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        """All fault firings, whatever the layer."""
        return (
            self.task_failures
            + self.vm_crashes
            + self.boot_failures
            + self.preemptions
        )

    @property
    def recoveries(self) -> int:
        return self.retries + self.resubmits + self.replans

    def as_dict(self) -> Dict[str, float]:
        """Every counter and total, in field order (not the log)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "decisions"
        }


class FaultRuntime:
    """The fault, market and recovery layer of one run.

    Built by :meth:`for_run`, which returns ``None`` on the zero-fault
    path (no plan, no ambient market).  One runtime serves exactly one
    executor: its :attr:`stats` and checkpoint table are per run, even
    when several runs share a fleet.
    """

    def __init__(
        self, plan: FaultPlan, recovery: "str | RecoveryPolicy | None" = None
    ) -> None:
        self.plan = plan
        self.market = plan.market
        self.spot = plan.spot_plan()
        self.recovery = recovery_policy(recovery)
        self.stats = FaultStats()
        #: how VMs are bought unless a recovery decision says otherwise
        self.default_purchase = (
            self.market.purchase if self.market is not None else None
        )
        #: seconds of work checkpointed at a reclamation warning, by task
        self.ckpt: Dict[str, float] = {}

    @staticmethod
    def plan_for(plan: Optional[FaultPlan], platform) -> Optional[FaultPlan]:
        """*plan*, or without one a plan carrying the platform's ambient
        market: the price process is a fault even with no plan given."""
        if plan is None:
            market = getattr(platform, "market", None)
            if market is not None:
                return FaultPlan(market=market)
        return plan

    @classmethod
    def for_run(
        cls,
        plan: Optional[FaultPlan],
        platform,
        recovery: "str | RecoveryPolicy | None",
    ) -> Optional["FaultRuntime"]:
        """The runtime of one run on *platform*, or ``None`` when there
        is neither a plan nor an ambient market."""
        plan = cls.plan_for(plan, platform)
        return None if plan is None else cls(plan, recovery)

    # ------------------------------------------------------------------
    # rent
    # ------------------------------------------------------------------
    def arm(
        self,
        sim: "Simulator",
        vm_key: str,
        itype: "InstanceType",
        region: "Region",
        purchase: Optional[object],
        crash: Callable[[], None],
        warning: Callable[[], None],
        kill: Callable[[], None],
        at: Callable[[float, Callable[[], None], str], None],
    ) -> None:
        """Arm what can kill a VM rented now: its crash draw, then (for
        a spot VM) the reclamation warning and the kill.  Same-time
        events fire in arming order, so this order is part of the trace.

        *at* schedules an action at an absolute time.  The executors
        turn a price-crossing instant into an event time with different
        float arithmetic, and each keeps its own."""
        uptime = self.plan.vm_crash_uptime(vm_key)
        if uptime != math.inf:
            sim.after(uptime, crash, f"crash:{vm_key}")
        if self.spot is None or purchase is None:
            return
        warn, kill_at = self.spot.preemption(itype, region, purchase, sim.now)
        if kill_at == math.inf:
            return
        if warn < kill_at:  # a zero-grace market kills without warning
            at(warn, warning, f"spot_warn:{vm_key}")
        at(kill_at, kill, f"preempt:{vm_key}")

    def boot_failed(self, vm_key: str, attempt: int) -> None:
        """Count one failed boot; raise once the recovery policy's
        attempt budget is spent."""
        self.stats.boot_failures += 1
        if attempt >= self.recovery.max_attempts:
            raise FaultError(f"{vm_key} failed to boot {attempt} times")

    # ------------------------------------------------------------------
    # failures and recovery
    # ------------------------------------------------------------------
    def vm_killed(self, preempt: bool) -> str:
        """Count one VM death; returns its trace event kind."""
        if preempt:
            self.stats.preemptions += 1
            return "vm_preempt"
        self.stats.vm_crashes += 1
        return "vm_crash"

    def attempt_failed(
        self,
        task_id: str,
        rec: TaskRecord,
        vm,
        now: float,
        reason: str,
        wasted: float,
        vm_alive: bool,
        lost: bool = False,
    ) -> RecoveryAction:
        """The step both executors take for one failed attempt of
        *task_id* on *vm* (anything with an ``id`` and a ``purchase``).

        Counts the failure and the *wasted* seconds (on a dead VM, less
        the progress a reclamation-warning checkpoint saved), asks the
        recovery policy and logs its verdict, bumps ``rec.attempt`` and
        counts the recovery the executor carries out: a retry on a live
        VM, a replan (also when *lost* — the replay's crashed VM — and
        the policy replans a crashed queue), or else a resubmit.

        Market decisions suffix the log line with ``[tag]``, so
        zero-market logs keep their historic format.  An abort raises
        :class:`~repro.errors.FaultError`; *lost* words it as a task
        lost with its VM rather than a policy giving up."""
        stats = self.stats
        stats.task_failures += 1
        if not vm_alive and task_id in self.ckpt:
            wasted = max(wasted - self.ckpt[task_id], 0.0)
        stats.wasted_task_seconds += wasted
        attempt = rec.attempt
        action = self.recovery.decide(
            FailureEvent(task_id, vm.id, attempt, now, reason, vm_alive, vm.purchase)
        )
        line = f"{action.kind}:{task_id}@{now:.3f}"
        if action.tag:
            line += f"[{action.tag}]"
            stats.rebids += 1
        stats.decisions.append(line)
        if action.kind == "abort":
            if lost:
                raise FaultError(
                    f"task {task_id!r} lost to a {reason} after {attempt} attempts"
                )
            raise FaultError(
                f"task {task_id!r} failed {attempt} times; recovery gave up"
            )
        rec.attempt = attempt + 1
        if action.kind == "replan" or (
            lost and self.recovery.queue_strategy == "replan"
        ):
            stats.replans += 1
        elif action.kind == "retry" and vm_alive:
            stats.retries += 1
        else:
            stats.resubmits += 1
        return action

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def close_vm(
        self,
        billing: "BillingModel",
        start: float,
        uptime: float,
        itype: "InstanceType",
        region: "Region",
        purchase: Optional[object],
        useful: float,
    ) -> Tuple[float, float]:
        """Bill one VM's rent window into the stats: its realized cost,
        its paid seconds and the paid seconds that did no useful work.
        Returns ``(cost, paid_seconds)``."""
        cost = billing.realized_cost(
            uptime, itype, region, start, purchase, self.market, self.plan.seed
        )
        paid = billing.paid_seconds(uptime)
        self.stats.realized_cost += cost
        self.stats.paid_seconds += paid
        self.stats.wasted_btu_seconds += paid - useful
        return cost, paid

    def emit_metrics(self, m: "MetricsRegistry") -> None:
        """Roll the fault and recovery counters into *m*."""
        s = self.stats
        m.inc("faults.task_failures", s.task_failures)
        m.inc("faults.vm_crashes", s.vm_crashes)
        m.inc("faults.boot_failures", s.boot_failures)
        m.inc("recovery.tasks_retried", s.retries)
        m.inc("recovery.tasks_resubmitted", s.resubmits)
        m.inc("recovery.replans", s.replans)
        # market counters only when the processes actually fired, so
        # zero-market runs keep their historical counter keys
        if s.preemptions:
            m.inc("faults.preemptions", s.preemptions)
        if s.grace_warnings:
            m.inc("faults.grace_warnings", s.grace_warnings)
        if s.rebids:
            m.inc("recovery.rebids", s.rebids)


def actual_duration(
    task_id: str,
    planned: float,
    runtime_fn: Optional[Callable[[str, float], float]],
    faults: Optional[FaultRuntime],
) -> float:
    """How long the next attempt of *task_id* really runs.

    *runtime_fn* maps the planned duration to the actual one.  An
    attempt that resumes from a reclamation-warning checkpoint runs only
    the remainder, plus the recovery policy's restart cost."""
    duration = planned
    if runtime_fn is not None:
        duration = runtime_fn(task_id, planned)
        if duration < 0:
            raise SimulationError(
                f"runtime_fn returned negative duration for {task_id!r}"
            )
    if faults is not None and faults.ckpt:
        done = faults.ckpt.pop(task_id, 0.0)
        if done > 0:
            duration = (
                max(duration - done, 0.0) + faults.recovery.restart_cost_seconds
            )
    return duration
