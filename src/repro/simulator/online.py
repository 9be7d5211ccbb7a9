"""Online (dynamic) scheduling: decisions during execution.

The paper schedules *statically* — all placement decisions are made up
front from exact runtime estimates.  Much of its related work
(instance-intensive workflows, auto-scaling) instead decides at runtime.
This module implements that mode on the discrete-event engine: a task is
placed the moment it becomes ready (all predecessors finished), using
the same five provisioning rules, against the fleet state *at that
moment*; idle VMs are deprovisioned at their BTU boundary and cannot be
reused afterwards.

Two deliberate differences from the static model, both inherent to
online operation:

* input transfers start only after placement (the destination is not
  known earlier), so a task pays its *largest* predecessor transfer
  after its ready time instead of overlapping per-predecessor transfers
  with earlier waits;
* with a ``runtime_fn`` the policy reacts to *actual* durations, so
  online placements can differ from the static plan built on estimates.

Fault injection follows the same reservation semantics the online model
already uses for placement: a failing attempt holds its reserved slot to
the planned finish (the VM is not reclaimed early), a VM crash voids the
VM and every uncompleted reservation on it but charges only the attempt
running at the crash, as the static replay does, and recovery
re-dispatch goes back through the ready queue — in online mode
*re-entering the ready queue is the replan*, because the provisioning
policy re-places the task against the fleet state at recovery time.  With ``fault_plan``
``None`` the executor is byte-identical to the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.provisioning.base import online_policy_names
from repro.core.recovery import RecoveryAction, RecoveryPolicy
from repro.errors import SchedulingError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.obs.tracer import Tracer, ensure_tracer
from repro.service.fleet import ClosedVM, FleetManager, FleetVM, fleet_for
from repro.simulator.engine import Simulator
from repro.simulator.faults import (
    DONE,
    PLACED,
    REDISPATCH,
    RETRY,
    FaultPlan,
    FaultRuntime,
    FaultStats,
    TaskRecord,
    actual_duration,
)
from repro.simulator.trace import TraceEvent
from repro.workflows.dag import Workflow


@dataclass(slots=True)
class _TaskRecord(TaskRecord):
    """One dispatched task's recovery state: a crash voiding the
    reservation bumps ``gen``, and ``fresh`` makes the next placement
    rent a new VM, bought as ``purchase`` (``None``: the run's default).
    """

    fresh: bool = False
    purchase: object | None = None


@dataclass
class OnlineResult:
    """Outcome of one online run."""

    makespan: float
    rent_cost: float
    idle_seconds: float
    vm_count: int
    task_start: Dict[str, float]
    task_finish: Dict[str, float]
    task_vm: Dict[str, int]
    events: List[TraceEvent]
    #: robustness accounting, populated only by fault-injected runs
    faults: Optional[FaultStats] = None


class OnlineCloudExecutor:
    """Run *workflow* with runtime placement decisions.

    By default the executor owns its world: a private
    :class:`~repro.simulator.engine.Simulator` and a private
    :class:`~repro.service.fleet.FleetManager`.  The service loop
    instead passes a shared *sim* and *fleet* (plus an *owner* for
    billing attribution) and drives :meth:`start` itself; :meth:`finish`
    stays private-fleet only — fleet-wide billing of a shared fleet is
    the service's job.
    The trace log (``events``) is kept only by an executor that drives
    its own simulator: :meth:`finish` is its only reader, so on a shared
    simulator it stays empty.
    """

    def __init__(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        policy: str = "StartParNotExceed",
        itype: InstanceType = SMALL,
        region: Region | None = None,
        runtime_fn: Callable[[str, float], float] | None = None,
        fault_plan: FaultPlan | None = None,
        recovery: "str | RecoveryPolicy | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        sim: Simulator | None = None,
        fleet: FleetManager | None = None,
        owner: str = "",
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        supported = online_policy_names()
        if policy not in supported:
            raise SchedulingError(
                f"unsupported online policy {policy!r}; known: {supported}"
            )
        workflow.validate()
        self.workflow = workflow
        self.platform = platform
        self.policy = policy
        #: the provisioning rule's branches in _select_vm, decided once;
        #: a NotExceed rule reuses a VM only if the task fits its paid BTUs
        self._one_vm = policy == "OneVMperTask"
        self._start_par = policy.startswith("StartPar")
        self._must_fit = policy.endswith("NotExceed")
        self.itype = itype
        self.region = region or platform.default_region
        self.runtime_fn = runtime_fn
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics if metrics is not None else current_metrics()
        self.sim = sim if sim is not None else Simulator(tracer=tracer)
        self._fleet_mgr = fleet_for(fleet, self.region, platform.btu_seconds)
        self.owner = owner
        #: this run's place in the fleet's crash and warning fan-out
        self.attach_no = self._fleet_mgr.attach()
        self.on_complete = on_complete
        self.levels = workflow.level_of()
        self.level_sizes: Dict[int, int] = {}
        for lvl in self.levels.values():
            self.level_sizes[lvl] = self.level_sizes.get(lvl, 0) + 1
        #: uncopied adjacency and edge-size maps (read-only)
        self._preds = workflow.pred_map()
        self._succs = workflow.succ_map()
        self._edge_gb = workflow.edge_data_map()
        self._pending = {tid: len(preds) for tid, preds in self._preds.items()}
        self._unfinished = len(self._pending)
        self.task_start: Dict[str, float] = {}
        self.task_finish: Dict[str, float] = {}
        self.task_vm: Dict[str, int] = {}
        self.events: List[TraceEvent] = []
        #: whether to append to ``events``; no caller of a shared
        #: simulator reaches finish(), the log's only reader
        self._log = sim is None
        #: the fault/market/recovery layer; ``None`` on the zero-fault path
        self.faults = FaultRuntime.for_run(fault_plan, platform, recovery)
        #: the recovery state of every dispatched task
        self._state: Dict[str, _TaskRecord] = {}

    @property
    def fleet(self) -> "Sequence[FleetVM | ClosedVM]":
        """The (possibly shared) fleet by VM id: live records, and row
        views of the VMs the manager has closed."""
        return self._fleet_mgr.vms

    def _record(
        self, time: float, kind: str, task_id: str, vm_id: int, detail: str = ""
    ) -> None:
        """Append one trace event, if this executor keeps the log."""
        if self._log:
            self.events.append(TraceEvent(time, kind, task_id, f"vm{vm_id}", detail))

    # ------------------------------------------------------------------
    # fleet queries at current simulation time
    # ------------------------------------------------------------------
    def _reap(self) -> None:
        """Deprovision VMs idle past their BTU horizon."""
        reaped = self._fleet_mgr.reap(self.sim.now)
        if self._log:
            btu = self.platform.btu_seconds
            for vm in reaped:
                self._record(vm.horizon(btu), "vm_stop", "", vm.id)

    def _rent(self, purchase: object | None = None) -> FleetVM:
        # Cold starts: the VM is requested now but cannot execute until
        # it has booted (the paper pre-boots; online cannot).
        faults = self.faults
        nominal = 0.0 if self.platform.prebooted else self.platform.boot_seconds
        boot = nominal
        mgr = self._fleet_mgr
        boot_active = (
            faults is not None
            and not self.platform.prebooted
            and (
                nominal > 0
                or faults.plan.boot_cold_seconds > 0
                or faults.plan.boot_warm_pool > 0
            )
        )
        if boot_active:
            # boot failures re-issue the request; the delays accumulate
            plan = faults.plan
            vm_id = len(mgr.vms)  # the id the rental below will get
            warm = mgr.take_warm(self.itype, plan.boot_warm_pool)
            total, attempt = 0.0, 0
            while True:
                attempt += 1
                fails, delay = plan.boot_delay_outcome(
                    f"vm{vm_id}", attempt, nominal, warm=warm
                )
                total += delay
                if not fails:
                    break
                self._record(self.sim.now + total, "vm_boot_fail", "", vm_id)
                faults.boot_failed(f"vm{vm_id}", attempt)
            boot = total
        if purchase is None and faults is not None:
            purchase = faults.default_purchase
        vm = mgr.rent(
            self.itype,
            started_at=self.sim.now,
            free_at=self.sim.now + boot,
            owner=self.owner,
            purchase=purchase,
        )
        self._record(self.sim.now, "vm_start", "", vm.id)
        if faults is not None:
            # the armed events carry the id, not the record, so a VM
            # reaped before its crash draw is not kept alive by it
            vm_id = vm.id
            faults.arm(
                self.sim,
                f"vm{vm_id}",
                self.itype,
                self.region,
                vm.purchase,
                crash=lambda: self._on_vm_crash(vm_id),
                warning=lambda: self._on_spot_warning(vm_id),
                kill=lambda: self._on_vm_crash(vm_id, preempt=True),
                at=self.sim.at,
            )
        return vm

    def _fits_btu(self, vm: FleetVM, duration: float) -> bool:
        """Would the task finish within the VM's already-paid BTUs?"""
        start = max(self.sim.now, vm.free_at)
        return start + duration <= vm.horizon(self.platform.btu_seconds) + 1e-9

    def _select_vm(self, task_id: str, duration: float) -> FleetVM:
        """Pick the VM for *task_id* against the fleet state *now*.

        Every query is served from the fleet indexes — heap-peek reap,
        max-busy peek, idle-pool scan — so a placement costs O(log
        fleet) instead of a roster walk.  Decision-identical to the
        full-scan oracle in ``tests/oracles/fleet_scan.py``
        (property-tested)."""
        mgr = self._fleet_mgr
        self._reap()
        if self._one_vm:
            return self._rent()
        if self._start_par:
            if not self._preds[task_id] or not mgr.live_count:
                return self._rent()
            target = mgr.max_busy_alive()
            assert target is not None
            if not self._must_fit:
                return target
            return target if self._fits_btu(target, duration) else self._rent()
        # AllPar*: "each parallel task to its own VM" reads dynamically
        # as *never queue a parallel task behind running work* — only
        # VMs idle right now are reusable, anything else means renting.
        # (The static scheduler excludes whole levels instead; online,
        # a same-level task that already finished leaves its VM free
        # with no parallelism lost.)
        now = self.sim.now
        fits = None
        if self._must_fit:
            fits = lambda vm: self._fits_btu(vm, duration)  # noqa: E731
        pred_vm = self._largest_pred_vm(task_id)
        if self.level_sizes[self.levels[task_id]] > 1:
            # the predecessor's VM wins whenever it qualifies as a
            # candidate (alive, idle now, fits); otherwise the most
            # utilized qualifying idle VM, served from the idle pool
            if (
                pred_vm is not None
                and pred_vm.free_at <= now + 1e-9
                and (fits is None or fits(pred_vm))
            ):
                return pred_vm
            best = mgr.best_idle(now, fits)
            return best if best is not None else self._rent()
        # singleton level: only the predecessor's VM is ever reusable
        if pred_vm is None:
            return self._rent()
        if fits is not None and not fits(pred_vm):
            return self._rent()
        return pred_vm

    def _largest_pred_vm(self, task_id: str) -> Optional[FleetVM]:
        """The VM of the longest-running placed predecessor, if it is
        still alive."""
        preds = [p for p in self._preds[task_id] if p in self.task_vm]
        if not preds:
            return None
        largest = max(
            preds, key=lambda p: (self.task_finish[p] - self.task_start[p], p)
        )
        return self._fleet_mgr.live_vm(self.task_vm[largest])

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_ready(self, task_id: str) -> None:
        now = self.sim.now
        planned = self.platform.runtime(self.workflow.task(task_id), self.itype)
        rec = self._state.get(task_id)
        if rec is not None and rec.fresh:
            rec.fresh = False
            vm = self._rent(rec.purchase)
        else:
            vm = self._select_vm(task_id, planned)
        # input staging: the largest predecessor transfer, paid after
        # placement (destination only now known)
        transfer = 0.0
        itype_of = self._fleet_mgr.itype_of
        for pred in self._preds[task_id]:
            pred_vm = self.task_vm[pred]
            dt = self.platform.transfer_time(
                self._edge_gb[pred, task_id],
                itype_of(pred_vm),
                vm.itype,
                same_vm=pred_vm == vm.id,
            )
            if dt > transfer:
                transfer = dt
        self._execute(task_id, vm, now + transfer, planned)

    def _execute(
        self, task_id: str, vm: FleetVM, earliest: float, planned: float | None = None
    ) -> None:
        """Reserve and run the next attempt of *task_id* on *vm*;
        *planned* is the task's runtime on the run's own flavor, when
        the caller has it."""
        rec = self._state.get(task_id)
        if rec is None:
            rec = self._state[task_id] = _TaskRecord(PLACED)
        else:
            rec.move(task_id, PLACED)
        start = max(earliest, vm.free_at)
        if planned is not None and vm.itype is self.itype:
            duration = planned
        else:
            duration = self.platform.runtime(self.workflow.task(task_id), vm.itype)
        faults = self.faults
        if self.runtime_fn is not None or faults is not None:
            duration = actual_duration(task_id, duration, self.runtime_fn, faults)
        finish = start + duration
        vm.free_at = finish
        vm.busy_seconds += duration
        # the reservation moved the VM's free/busy state: re-index it
        # (expiry horizon, busy rank, free pool) in the manager
        self._fleet_mgr.note_use(vm)
        prev = self.task_vm.get(task_id)
        key = (self, task_id)
        if prev is not None and prev != vm.id:
            # re-placement after a failure: leave the old VM's roster
            # (a dead VM's roster is never read again)
            old = self._fleet_mgr.live_vm(prev)
            if old is not None:
                del old.tasks[key]
        vm.tasks[key] = None
        self.task_vm[task_id] = vm.id
        self.task_start[task_id] = start
        self.task_finish[task_id] = finish
        self._record(start, "task_start", task_id, vm.id)
        gen = rec.gen
        frac = faults.plan.task_attempt(task_id, rec.attempt) if faults else None
        if frac is None:
            self.sim.at(
                finish, lambda g=gen: self._on_finish(task_id, g), f"end:{task_id}"
            )
        else:
            # the attempt dies partway; the reservation is held anyway
            # (the slot was committed at placement)
            wasted = frac * duration
            self.sim.at(
                start + wasted,
                lambda g=gen, w=wasted: self._on_task_fail(task_id, g, w),
                f"fail:{task_id}",
            )

    def _on_finish(self, task_id: str, gen: int) -> None:
        rec = self._state[task_id]
        if gen != rec.gen:
            return  # reservation voided by a VM crash
        rec.move(task_id, DONE)
        # a crash of the VM would have bumped the generation: it is alive
        vm = self._fleet_mgr.live_vm(self.task_vm[task_id])
        self._unfinished -= 1
        del vm.tasks[self, task_id]
        vm.useful_seconds += self.task_finish[task_id] - self.task_start[task_id]
        self._record(self.sim.now, "task_end", task_id, vm.id)
        for succ in self._succs[task_id]:
            self._pending[succ] -= 1
            if self._pending[succ] == 0:
                self.sim.at(self.sim.now, lambda s=succ: self._on_ready(s), f"ready:{succ}")
        if self.on_complete is not None and not self._unfinished:
            self.on_complete()

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _recover(
        self, task_id: str, vm: FleetVM, reason: str, wasted: float
    ) -> RecoveryAction:
        """Log the failed attempt of *task_id* on *vm*, take the
        failed-attempt step, schedule the re-dispatch and return the
        policy's action."""
        faults = self.faults
        assert faults is not None
        rec = self._state[task_id]
        detail = f"attempt:{rec.attempt}" if reason == "task" else reason
        self._record(self.sim.now, "task_fail", task_id, vm.id, detail)
        action = faults.attempt_failed(
            task_id, rec, vm, self.sim.now, reason, wasted, not vm.dead
        )
        if action.kind == "retry" and not vm.dead:
            # same VM, inputs staged: wait out the backoff (the slot
            # reservation makes the start no earlier than vm.free_at)
            rec.move(task_id, RETRY)
            self.sim.after(
                action.delay,
                lambda t=task_id, v=vm, g=rec.gen: self._retry(t, v, g),
                f"retry:{task_id}",
            )
            return action
        # off the VM's roster walks until placed again (a crash during
        # the backoff must not recover it twice)
        rec.move(task_id, REDISPATCH)
        if action.kind != "replan":  # the online policy re-places a replan
            # the bidding decision rides to the replacement rental
            rec.fresh, rec.purchase = True, action.purchase
        self.sim.after(
            action.delay, lambda t=task_id: self._on_ready(t), f"ready:{task_id}"
        )
        return action

    def _retry(self, task_id: str, vm: FleetVM, gen: int) -> None:
        rec = self._state[task_id]
        if gen != rec.gen:
            return  # a crash re-dispatched the task meanwhile
        if not vm.dead:
            self._execute(task_id, vm, self.sim.now)
        else:  # reaped idle during the backoff: a fresh VM, as in _recover
            rec.move(task_id, REDISPATCH)
            rec.fresh, rec.purchase = True, None
            self._on_ready(task_id)

    def _on_task_fail(self, task_id: str, gen: int, wasted: float) -> None:
        rec = self._state[task_id]
        if gen != rec.gen:
            return  # reservation voided by a VM crash
        vm = self._fleet_mgr.live_vm(self.task_vm[task_id])
        self._recover(task_id, vm, "task", wasted)

    def _on_vm_crash(self, vm_id: int, preempt: bool = False) -> None:
        self._reap()  # an idle VM past its paid horizon is gone already
        vm = self._fleet_mgr.live_vm(vm_id)
        if vm is None:
            return  # released before the crash would have hit
        assert self.faults is not None
        now = self.sim.now
        self._fleet_mgr.mark_crashed(vm, now)
        vm.preempted = preempt
        self._record(now, self.faults.vm_killed(preempt), "", vm.id)
        self._fleet_mgr.notify_crash(vm)

    def _on_spot_warning(self, vm_id: int) -> None:
        """The provider's reclamation warning for a VM this run rented:
        count it and fan it out so every run checkpoints its work."""
        self._reap()
        vm = self._fleet_mgr.live_vm(vm_id)
        if vm is None:
            return
        assert self.faults is not None
        self.faults.stats.grace_warnings += 1
        self._record(self.sim.now, "spot_warning", "", vm.id)
        self._fleet_mgr.notify_warning(vm)

    def _own_reservations(self, vm: FleetVM) -> List[str]:
        """This run's unfinished reservations on *vm* that a crash must
        recover (not those already waiting out a backoff), roster order."""
        state = self._state
        return [
            tid
            for run, tid in vm.tasks
            if run is self and state[tid].phase != REDISPATCH
        ]

    def checkpoint(self, vm: FleetVM) -> None:
        """Checkpoint this run's attempt running on *vm* at a spot
        warning (when the recovery policy opts in): a placed attempt that
        has started, as the replay saves ``vm.running``.  A retry waiting
        out its backoff keeps nothing of the attempt that failed."""
        faults = self.faults
        assert faults is not None
        if not faults.recovery.checkpoint_on_warning:
            return
        now = self.sim.now
        state = self._state
        for tid in self._own_reservations(vm):
            started = self.task_start[tid]
            if state[tid].phase != PLACED or started > now:
                continue  # reserved but not yet running, or backing off
            done = min(now, self.task_finish[tid]) - started
            if done > 0:
                faults.ckpt[tid] = done

    def reclaim(self, vm: FleetVM) -> None:
        """Void this run's reservations on the crashed *vm* and re-dispatch
        them; the fleet calls each run on the VM's roster in turn.

        Only the attempt running at the crash failed and is charged.  A
        later reservation, or a retry waiting out its backoff, never ran:
        like the replay's crashed queue it follows ``queue_strategy``,
        with the running attempt's recovery delay and purchase."""
        faults = self.faults
        assert faults is not None
        now = self.sim.now
        reason = "spot_preempt" if vm.preempted else "vm_crash"
        delay, purchase = 0.0, vm.purchase
        queued = []
        for tid in self._own_reservations(vm):
            rec = self._state[tid]
            rec.gen += 1  # the voided reservation's events are stale
            started = self.task_start[tid]
            ran = max(min(now, self.task_finish[tid]) - started, 0.0)
            # reclaim the voided reservation from the busy accounting
            vm.busy_seconds -= self.task_finish[tid] - started
            vm.busy_seconds += ran
            if rec.phase == PLACED and started <= now:
                action = self._recover(tid, vm, reason, ran)
                delay, purchase = action.delay, action.purchase or vm.purchase
            else:
                queued.append(tid)
        for tid in queued:
            rec = self._state[tid]
            rec.move(tid, REDISPATCH)
            if faults.recovery.queue_strategy != "replan":
                rec.fresh, rec.purchase = True, purchase
            self.sim.after(delay, lambda t=tid: self._on_ready(t), f"ready:{tid}")

    # ------------------------------------------------------------------
    # observability (only reached when tracing/metrics were requested)
    # ------------------------------------------------------------------
    def _emit_trace(self) -> None:
        """Sim-time VM rent windows and task spans for the Chrome trace."""
        btu = self.platform.btu_seconds
        run = self.tracer.next_run()
        for vm in self.fleet:
            end = vm.crashed_at if vm.crashed else max(vm.free_at, vm.horizon(btu))
            tid = f"run{run}:vm{vm.id}"
            self.tracer.complete(
                f"rent:vm{vm.id}",
                vm.started_at,
                max(end - vm.started_at, 0.0),
                tid=tid,
                cat="sim.vm",
                itype=vm.itype.name,
            )
            if vm.crashed:
                self.tracer.instant(
                    "vm_crash", ts=vm.crashed_at, tid=tid, cat="sim.fault"
                )
        for task_id, start in self.task_start.items():
            tid = f"run{run}:vm{self.task_vm[task_id]}"
            self.tracer.complete(
                task_id,
                start,
                self.task_finish[task_id] - start,
                tid=tid,
                cat="sim.task",
            )
        for ev in self.events:
            if ev.kind in ("task_fail", "vm_boot_fail", "vm_preempt", "spot_warning"):
                self.tracer.instant(
                    ev.kind,
                    ts=ev.time,
                    tid=f"run{run}:{ev.vm}" if ev.vm else "main",
                    cat="sim.fault",
                    task=ev.task_id,
                )
        self.tracer.counter(
            "sim.makespan_seconds", max(self.task_finish.values(), default=0.0)
        )

    def _emit_metrics(self) -> None:
        assert self.metrics is not None
        billing = self.platform.billing
        btus = 0
        for vm in self.fleet:
            end = vm.crashed_at if vm.crashed else vm.free_at
            btus += billing.btus(max(end - vm.started_at, 0.0))
        self.metrics.inc("online.runs")
        self.metrics.inc("online.vms_rented", len(self.fleet))
        self.metrics.inc("online.btus_billed", btus)
        self.metrics.inc("online.tasks_executed", len(self.task_finish))
        self.metrics.inc("sim.events_processed", self.sim.processed_events)
        self.metrics.inc(
            "sim.simulated_seconds", max(self.task_finish.values(), default=0.0)
        )
        if self.faults is not None:
            self.faults.emit_metrics(self.metrics)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Make the entry tasks ready now.  On a shared simulator the
        caller owns the event loop."""
        for tid in self.workflow.entry_tasks():
            self.sim.at(self.sim.now, lambda t=tid: self._on_ready(t), f"ready:{tid}")

    def run(self) -> OnlineResult:
        self.start()
        with self.tracer.span(
            "online.run", cat="executor", workflow=self.workflow.name, policy=self.policy
        ):
            self.sim.run()
        return self.finish()

    def finish(self) -> OnlineResult:
        """Validate completion and bill the fleet.  Private-fleet only:
        the totals span *every* VM in the manager, so on a shared fleet
        the service loop does the billing instead (per owner)."""
        missing = [t for t in self.workflow.task_ids if t not in self.task_finish]
        if missing:
            raise SimulationError(f"online run never completed: {missing}")
        billing = self.platform.billing
        faults = self.faults
        rent = 0.0
        idle = 0.0
        for vm in self.fleet:
            # a crashed VM stops accruing rent at the crash, but the
            # started BTU is still billed in full
            end = vm.crashed_at if vm.crashed else vm.free_at
            uptime = end - vm.started_at
            if faults is None:
                cost = billing.vm_cost(uptime, vm.itype, self.region)
                paid = billing.paid_seconds(uptime)
            else:
                cost, paid = faults.close_vm(
                    billing,
                    vm.started_at,
                    uptime,
                    vm.itype,
                    self.region,
                    vm.purchase,
                    vm.useful_seconds,
                )
            rent += cost
            idle += paid - vm.busy_seconds
        if self.tracer.enabled:
            self._emit_trace()
        if self.metrics is not None:
            self._emit_metrics()
        return OnlineResult(
            makespan=max(self.task_finish.values()),
            rent_cost=rent,
            idle_seconds=idle,
            vm_count=len(self.fleet),
            task_start=dict(self.task_start),
            task_finish=dict(self.task_finish),
            task_vm=dict(self.task_vm),
            # vm_stop events carry their horizon time but are observed at
            # the next reap; sort so the trace reads chronologically
            events=sorted(self.events, key=lambda e: e.time),
            faults=faults.stats if faults is not None else None,
        )


def online_to_schedule(
    result: OnlineResult,
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType | None = None,
    region: Region | None = None,
):
    """Rebuild a noise-free online run as a :class:`Schedule`, opening
    up every schedule analysis (Gantt, explain, utilization, bounds) to
    online results.

    Only valid when the run used exact runtimes (no ``runtime_fn``):
    realized durations must equal ``work / speedup`` or the conversion
    raises, because a :class:`Schedule` certifies exactly that.
    """
    from repro.cloud.vm import VM as CloudVM
    from repro.core.schedule import Schedule

    itype = itype or platform.itype("small")
    region = region or platform.default_region
    by_vm: Dict[int, List[str]] = {}
    for tid, vm_id in result.task_vm.items():
        by_vm.setdefault(vm_id, []).append(tid)
    vms = []
    for vm_id in sorted(by_vm):
        vm = CloudVM(id=len(vms), itype=itype, region=region)
        for tid in sorted(by_vm[vm_id], key=lambda t: result.task_start[t]):
            start = result.task_start[tid]
            duration = result.task_finish[tid] - start
            expected = platform.runtime(workflow.task(tid), itype)
            if abs(duration - expected) > 1e-6 * max(1.0, expected):
                raise SimulationError(
                    f"cannot convert noisy online run: {tid!r} ran "
                    f"{duration:.3f}s, nominal {expected:.3f}s"
                )
            vm.place(tid, start, duration)
        vms.append(vm)
    return Schedule(
        workflow=workflow,
        platform=platform,
        vms=vms,
        algorithm="online",
        provisioning="online",
    ).validate()


def run_online(
    workflow: Workflow,
    platform: CloudPlatform,
    policy: str = "StartParNotExceed",
    itype: InstanceType | None = None,
    region: Region | None = None,
    runtime_fn: Callable[[str, float], float] | None = None,
    fault_plan: FaultPlan | None = None,
    recovery: "str | RecoveryPolicy | None" = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> OnlineResult:
    """Convenience wrapper: build and run an online executor."""
    return OnlineCloudExecutor(
        workflow,
        platform,
        policy=policy,
        itype=itype or platform.itype("small"),
        region=region,
        runtime_fn=runtime_fn,
        fault_plan=fault_plan,
        recovery=recovery,
        tracer=tracer,
        metrics=metrics,
    ).run()
