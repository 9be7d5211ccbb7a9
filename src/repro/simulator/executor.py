"""Dynamic replay of a static schedule.

The executor takes only the schedule's *decisions* — which VM runs each
task and in what per-VM order — and re-derives all timing through
discrete events: a task starts when it reaches the front of its VM's
queue **and** its last input has arrived; finishing a task triggers the
store-and-forward transfers to its successors' VMs.  VMs are pre-booted
(the paper's static-scheduling argument), so they are available from
t=0 and their rent window is measured from their first task start.

Because the :class:`~repro.core.builder.ScheduleBuilder` uses exactly
this recurrence, a valid static schedule replays with identical times;
:func:`simulate_schedule` asserts that when ``check=True``.

Fault injection
---------------
A :class:`~repro.simulator.faults.FaultPlan` turns the replay into a
fault-injected run: execution attempts can die partway, VMs can crash at
a sampled uptime (billed to the BTU boundary), and cold boots can fail
or take longer than nominal.  A
:class:`~repro.core.recovery.RecoveryPolicy` then decides how the run
carries on — retry on the same VM, resubmit to a fresh VM, or replan the
whole unfinished sub-DAG through the schedule's original provisioning
policy against the surviving fleet.  With a plan of zero probability the
executor behaves, event for event, exactly as without one; with faults
enabled, identical seeds reproduce identical traces and recovery
decisions (see the determinism contract in
:mod:`repro.simulator.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.instance import InstanceType
from repro.cloud.region import Region
from repro.core.recovery import RecoveryAction, RecoveryPolicy
from repro.core.schedule import Schedule
from repro.errors import FaultError, SchedulingError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.obs.tracer import Tracer, ensure_tracer
from repro.simulator.engine import Simulator
from repro.simulator.faults import (
    DONE,
    QUEUED,
    RUNNING,
    FaultPlan,
    FaultRuntime,
    TaskRecord,
    actual_duration,
)
from repro.simulator.trace import SimulationResult, TraceEvent


@dataclass
class _ExecVM:
    """Runtime state of one VM during (possibly fault-injected) replay."""

    id: int
    name: str
    itype: InstanceType
    region: Region
    #: execution order: finished prefix, then the running/waiting tasks
    queue: List[str] = field(default_factory=list)
    next_idx: int = 0
    running: Optional[str] = None
    #: when the rent window opened (boot request / first task start)
    rent_open: bool = False
    rent_start: float = 0.0
    #: last time the VM finished or dropped an execution attempt
    last_active: float = 0.0
    #: seconds of completed (useful) executions hosted here
    useful_seconds: float = 0.0
    crashed: bool = False
    crashed_at: float = 0.0
    boot_done: bool = False
    boot_attempt: int = 0
    #: how this VM was bought (a market ``PurchaseOption``); ``None``
    #: outside market runs
    purchase: Optional[object] = None
    #: whether the crash that killed this VM was a spot reclamation
    preempted: bool = False
    #: whether the acquisition hit the warm pool (cold-start scenarios)
    booted_warm: bool = False


@dataclass(slots=True, kw_only=True)
class _TaskState(TaskRecord):
    """One task's replay state: ``vm`` is its placement (moving to
    another VM bumps ``gen``) and ``pending`` the inputs still to arrive
    there; ``exp_end`` is the expected end of the running attempt, which
    a replan adopts."""

    vm: _ExecVM
    pending: int
    exp_end: float = 0.0


class ScheduleExecutor:
    """Replays one :class:`Schedule` on a fresh :class:`Simulator`.

    *runtime_fn*, when given, maps ``(task_id, planned_duration)`` to the
    *actual* duration — the hook for robustness studies where execution
    times deviate from the static scheduler's estimates.  The per-VM
    queue and dependency disciplines absorb any deviation, so execution
    always stays feasible; only the timings shift.

    *fault_plan* and *recovery* enable fault injection: see the module
    docstring.  *recovery* accepts a
    :class:`~repro.core.recovery.RecoveryPolicy`, a registry name
    (``"retry"``, ``"resubmit"``, ``"replan"``) or ``None`` (retry with
    default backoff); it is only consulted when a fault actually fires.

    *tracer* records the replay for ``chrome://tracing``: a wall-clock
    span around the event loop plus simulated-time spans per VM rent
    window and task execution, with fault/recovery instants.  *metrics*
    (default: the registry activated via
    :meth:`repro.obs.MetricsRegistry.activate`, if any) accumulates the
    run's counters.  Both default to disabled at zero cost.
    """

    def __init__(
        self,
        schedule: Schedule,
        runtime_fn: Callable[[str, float], float] | None = None,
        fault_plan: FaultPlan | None = None,
        recovery: "str | RecoveryPolicy | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.schedule = schedule
        self.runtime_fn = runtime_fn
        #: the fault/market/recovery layer; ``None`` on the zero-fault path
        self.faults = FaultRuntime.for_run(fault_plan, schedule.platform, recovery)
        plan = self.faults.plan if self.faults is not None else None
        self.tracer = ensure_tracer(tracer)
        self.metrics = metrics if metrics is not None else current_metrics()
        self.sim = Simulator(tracer=tracer)
        self.result = SimulationResult()
        wf = schedule.workflow
        # Runtime fleet: starts as the planned VMs, may grow on recovery.
        purchase = self.faults.default_purchase if self.faults is not None else None
        self._vms: List[_ExecVM] = [
            _ExecVM(
                id=vm.id,
                name=vm.name,
                itype=vm.itype,
                region=vm.region,
                queue=list(vm.task_ids),
                purchase=purchase,
            )
            for vm in schedule.vms
        ]
        # one state per task; entry tasks are ready at t=0
        self._state: Dict[str, _TaskState] = {
            tid: _TaskState(QUEUED, vm=evm, pending=len(wf.predecessors(tid)))
            for evm in self._vms
            for tid in evm.queue
        }
        #: warm-pool acquisitions consumed so far, by flavor name
        self._warm_used: Dict[str, int] = {}
        # whether starting a fresh VM involves a boot phase at all: the
        # platform's cold-boot switch, or plan-level cold-start/warm-pool
        # fields that only matter on non-prebooted platforms
        platform = schedule.platform
        self._boot_needed = not platform.prebooted and (
            platform.boot_seconds > 0
            or (
                plan is not None
                and (plan.boot_cold_seconds > 0 or plan.boot_warm_pool > 0)
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _front(self, vm: _ExecVM) -> str | None:
        q = vm.queue
        i = vm.next_idx
        return q[i] if i < len(q) else None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _open_rent(self, vm: _ExecVM) -> None:
        """Open the VM's rent window and arm what can kill it."""
        if vm.rent_open:
            return
        vm.rent_open = True
        vm.rent_start = self.sim.now
        vm.last_active = self.sim.now
        if self.faults is not None:
            self.faults.arm(
                self.sim,
                vm.name,
                vm.itype,
                vm.region,
                vm.purchase,
                crash=lambda: self._vm_crash(vm),
                warning=lambda: self._spot_warning(vm),
                kill=lambda: self._vm_crash(vm, preempt=True),
                at=self._at_as_delay,
            )

    def _at_as_delay(self, time: float, action, label: str) -> None:
        """Schedule at absolute *time* as a delay from now: the replay's
        event-time arithmetic, which the traces are pinned to."""
        self.sim.after(time - self.sim.now, action, label)

    def _spot_warning(self, vm: _ExecVM) -> None:
        """The provider's reclamation warning: count it, and checkpoint
        the running attempt when the recovery policy asks for it."""
        if vm.crashed or not vm.rent_open:
            return
        faults = self.faults
        assert faults is not None
        now = self.sim.now
        faults.stats.grace_warnings += 1
        self.result.record(TraceEvent(now, "spot_warning", vm.running or "", vm.name))
        if faults.recovery.checkpoint_on_warning and vm.running is not None:
            done = max(now - self.result.task_start[vm.running], 0.0)
            if done > 0:
                faults.ckpt[vm.running] = done

    def _try_start(self, task_id: str) -> None:
        st = self._state[task_id]
        if st.phase != QUEUED:
            return
        vm = st.vm
        if self._front(vm) != task_id:
            return  # an earlier queue entry still runs or waits
        if st.pending > 0:
            return
        platform = self.schedule.platform
        if self._boot_needed and not vm.boot_done:
            # first task is ready: the VM is requested now and boots
            if not vm.rent_open:
                self._open_rent(vm)
                self.result.record(TraceEvent(self.sim.now, "vm_boot", "", vm.name))
                self._boot(vm)
            return
        st.move(task_id, RUNNING)
        now = self.sim.now
        self._open_rent(vm)
        duration = platform.runtime(self.schedule.workflow.task(task_id), vm.itype)
        faults = self.faults
        if self.runtime_fn is not None or faults is not None:
            duration = actual_duration(task_id, duration, self.runtime_fn, faults)
        self.result.record(TraceEvent(now, "task_start", task_id, vm.name))
        vm.running = task_id
        frac = faults.plan.task_attempt(task_id, st.attempt) if faults else None
        if frac is None:
            st.exp_end = now + duration
            self.sim.after(
                duration,
                lambda g=st.gen: self._finish(task_id, g),
                f"end:{task_id}",
            )
        else:
            wasted = frac * duration
            st.exp_end = now + wasted
            self.sim.after(
                wasted,
                lambda g=st.gen, w=wasted: self._task_fail(task_id, g, w),
                f"fail:{task_id}",
            )

    def _boot(self, vm: _ExecVM) -> None:
        """Run one boot attempt; on failure, re-request the VM."""
        platform = self.schedule.platform
        vm.boot_attempt += 1
        attempt = vm.boot_attempt
        delay = platform.boot_seconds
        fails = False
        if self.faults is not None:
            plan = self.faults.plan
            if attempt == 1 and plan.boot_warm_pool > 0:
                used = self._warm_used.get(vm.itype.name, 0)
                if used < plan.boot_warm_pool:
                    self._warm_used[vm.itype.name] = used + 1
                    vm.booted_warm = True
            fails, delay = plan.boot_delay_outcome(
                vm.name, attempt, platform.boot_seconds, warm=vm.booted_warm
            )

        def boot_complete(v=vm, failed=fails):
            if v.crashed:
                return
            if failed:
                assert self.faults is not None
                self.result.record(
                    TraceEvent(self.sim.now, "vm_boot_fail", "", v.name)
                )
                self.faults.boot_failed(v.name, v.boot_attempt)
                # acquisition failures are not billed: the rent clock
                # restarts with the re-issued request
                v.rent_start = self.sim.now
                self._boot(v)
                return
            v.boot_done = True
            v.last_active = self.sim.now
            self._kick_front(v)

        self.sim.after(delay, boot_complete, f"boot:{vm.name}")

    def _finish(self, task_id: str, gen: int) -> None:
        st = self._state[task_id]
        if gen != st.gen:
            return  # a crash moved the task off this placement
        st.move(task_id, DONE)
        now = self.sim.now
        vm = st.vm
        vm.running = None
        vm.last_active = now
        vm.useful_seconds += now - self.result.task_start[task_id]
        self.result.record(TraceEvent(now, "task_end", task_id, vm.name))
        # Free the VM for its next queued task.
        vm.next_idx += 1
        self._kick_front(vm)
        # Ship outputs to successors.
        wf = self.schedule.workflow
        for succ in wf.successors(task_id):
            succ_st = self._state[succ]
            dst = succ_st.vm
            dt = self.schedule.platform.transfer_time(
                wf.data_gb(task_id, succ),
                vm.itype,
                dst.itype,
                same_vm=vm is dst,
                src_region=vm.region,
                dst_region=dst.region,
            )
            if dt > 0:
                self.result.record(
                    TraceEvent(now, "transfer_start", succ, dst.name, f"from:{task_id}")
                )
            self.sim.after(
                dt,
                lambda s=succ, g=succ_st.gen: self._arrive(s, g),
                f"arrive:{succ}",
            )

    def _arrive(self, task_id: str, gen: int) -> None:
        st = self._state[task_id]
        if gen != st.gen:
            return  # delivery to an abandoned placement
        st.pending -= 1
        if st.pending < 0:
            raise SimulationError(f"extra input arrival for {task_id!r}")
        self._try_start(task_id)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _task_fail(self, task_id: str, gen: int, wasted: float) -> None:
        st = self._state[task_id]
        if gen != st.gen:
            return  # a crash moved the task off this placement
        st.move(task_id, QUEUED)
        faults = self.faults
        assert faults is not None
        now = self.sim.now
        vm = st.vm
        vm.running = None
        vm.last_active = now
        self.result.record(
            TraceEvent(now, "task_fail", task_id, vm.name, f"attempt:{st.attempt}")
        )
        action = faults.attempt_failed(task_id, st, vm, now, "task", wasted, True)
        if action.kind == "retry":
            # same VM, inputs already staged: re-run after the backoff
            self.sim.after(
                action.delay, lambda t=task_id: self._try_start(t), f"retry:{task_id}"
            )
        elif action.kind == "resubmit":
            # to a freshly rented VM
            vm.queue.remove(task_id)
            nvm = self._new_vm(vm.itype, vm.region, action.purchase or vm.purchase)
            self._move_task(task_id, nvm, action.delay)
            self._kick_front(vm)
        else:  # replan
            self._replan(action.delay)

    def _vm_crash(self, vm: _ExecVM, preempt: bool = False) -> None:
        if vm.crashed:
            return
        running = vm.running
        state = self._state
        remaining = [t for t in vm.queue[vm.next_idx :] if state[t].phase != DONE]
        if running is None and not remaining:
            return  # the VM had already drained and stopped
        faults = self.faults
        assert faults is not None
        now = self.sim.now
        vm.crashed = True
        vm.crashed_at = now
        vm.preempted = preempt
        reason = "spot_preempt" if preempt else "vm_crash"
        self.result.record(TraceEvent(now, faults.vm_killed(preempt), "", vm.name))
        replan = faults.recovery.queue_strategy == "replan"
        if running is not None:
            st = state[running]
            self.result.record(
                TraceEvent(now, "task_fail", running, vm.name, reason)
            )
            st.move(running, QUEUED)
            vm.running = None
            wasted = max(now - self.result.task_start[running], 0.0)
            action = faults.attempt_failed(
                running, st, vm, now, reason, wasted, False, lost=True
            )
            replan = replan or action.kind == "replan"
        else:
            # nothing ran: the queue alone follows the queue strategy,
            # re-placed uncharged, so no recovery is counted
            action = RecoveryAction("replan" if replan else "resubmit", 0.0)
        # the dead VM keeps only its executed prefix
        vm.queue = vm.queue[: vm.next_idx]
        if replan:
            self._replan(action.delay)
        else:
            # one replacement VM inherits the interrupted + queued work,
            # bought as the recovery directed (rebid/fallback) or on the
            # dead VM's own terms
            nvm = self._new_vm(vm.itype, vm.region, action.purchase or vm.purchase)
            for tid in remaining:
                self._move_task(tid, nvm, action.delay)

    # ------------------------------------------------------------------
    # recovery mechanics
    # ------------------------------------------------------------------
    def _new_vm(
        self,
        itype: InstanceType,
        region: Region,
        purchase: Optional[object] = None,
    ) -> _ExecVM:
        assert self.faults is not None
        evm = _ExecVM(
            id=len(self._vms),
            name=f"vm{len(self._vms)}-{itype.short}",
            itype=itype,
            region=region,
            purchase=purchase if purchase is not None else self.faults.default_purchase,
        )
        self._vms.append(evm)
        self.result.record(
            TraceEvent(self.sim.now, "vm_start", "", evm.name, "recovery")
        )
        return evm

    def _move_task(self, task_id: str, vm: _ExecVM, delay: float) -> None:
        """Re-place *task_id* on *vm* and re-deliver its inputs there.

        Finished predecessors re-ship their output (store-and-forward
        from their VM) after the recovery *delay*; unfinished ones will
        deliver to the new placement when they complete.
        """
        st = self._state[task_id]
        vm.queue.append(task_id)
        st.vm = vm
        st.gen += 1
        wf = self.schedule.workflow
        preds = wf.predecessors(task_id)
        st.pending = len(preds)
        if not preds:
            self.sim.after(
                delay, lambda t=task_id: self._try_start(t), f"kick:{task_id}"
            )
            return
        now = self.sim.now
        for pred in preds:
            pred_st = self._state[pred]
            if pred_st.phase != DONE:
                continue  # will ship on its own completion
            src = pred_st.vm
            dt = self.schedule.platform.transfer_time(
                wf.data_gb(pred, task_id),
                src.itype,
                vm.itype,
                same_vm=src is vm,
                src_region=src.region,
                dst_region=vm.region,
            )
            if dt > 0:
                self.result.record(
                    TraceEvent(
                        now, "transfer_start", task_id, vm.name, f"restage:{pred}"
                    )
                )
            self.sim.after(
                delay + dt,
                lambda t=task_id, g=st.gen: self._arrive(t, g),
                f"arrive:{task_id}",
            )

    def _replan(self, delay: float) -> None:
        """Re-run the original provisioning policy on the unfinished
        sub-DAG against the surviving fleet state.

        Completed and currently-running executions are frozen at their
        realized times; every *pending* (unstarted) task — on any VM —
        is handed back to the provisioning policy, which sees the
        surviving VMs with their accumulated history and may reuse them
        or rent fresh ones.  Policy estimates for the re-placed tasks
        are approximate (the builder's clock is the schedule era, not
        the failure instant); actual timing is still re-derived
        event-by-event, so the realized trace stays exact.
        """
        from repro.core.builder import ScheduleBuilder
        from repro.core.provisioning.base import provisioning_policy as _provision

        assert self.faults is not None
        wf = self.schedule.workflow
        name = (
            getattr(self.faults.recovery, "provisioning", None)
            or self.schedule.provisioning
        )
        try:
            policy = _provision(name)
        except SchedulingError:
            raise FaultError(
                f"replan needs a registered provisioning policy; "
                f"{name!r} is unknown — use ReplanRemaining(provisioning=...)"
            ) from None
        state = self._state
        pending = [t for t in wf.topological_order() if state[t].phase == QUEUED]
        pending_set = set(pending)
        # strip pending tasks from every surviving queue
        for evm in self._vms:
            if evm.crashed:
                continue
            evm.queue = [t for t in evm.queue if t not in pending_set]
            evm.next_idx = sum(1 for t in evm.queue if state[t].phase == DONE)
        # seed a builder with the surviving fleet state
        default_itype = (
            self.schedule.vms[0].itype if self.schedule.vms else self._vms[0].itype
        )
        builder = ScheduleBuilder(
            wf,
            self.schedule.platform,
            default_itype,
            region=self.schedule.vms[0].region if self.schedule.vms else None,
        )
        survivors = [
            evm for evm in self._vms if not evm.crashed and evm.queue
        ]
        for evm in survivors:
            builder.adopt_vm(
                evm.itype,
                evm.region,
                placements=[
                    (
                        tid,
                        self.result.task_start[tid],
                        self.result.task_finish[tid]
                        if state[tid].phase == DONE
                        else state[tid].exp_end,
                    )
                    for tid in evm.queue
                ],
            )
        # ghost entries for executions on crashed VMs: the policy cannot
        # place anything there, but transfer estimates need their origin
        for evm in self._vms:
            if not evm.crashed:
                continue
            builder.adopt_ghost(
                evm.itype,
                evm.region,
                placements=[
                    (
                        tid,
                        self.result.task_start[tid],
                        self.result.task_finish[tid],
                    )
                    for tid in evm.queue
                    if state[tid].phase == DONE
                ],
            )
        # hand the unfinished sub-DAG back to the provisioning policy
        for tid in pending:
            builder.begin_task(tid)
            bvm = policy.select_vm(tid, builder)
            builder.place(tid, bvm)
        # map the policy's decisions back onto the runtime fleet
        bvm_to_evm: Dict[int, _ExecVM] = {
            idx: evm for idx, evm in enumerate(survivors)
        }
        for bvm in builder.vms:
            new_tasks = [t for t in bvm.order if t in pending_set]
            if not new_tasks:
                continue
            evm = bvm_to_evm.get(bvm.id)
            if evm is None:
                evm = self._new_vm(bvm.itype, bvm.region)
                bvm_to_evm[bvm.id] = evm
            for tid in new_tasks:
                if state[tid].vm is evm:
                    evm.queue.append(tid)  # keeps its in-flight inputs
                else:
                    self._move_task(tid, evm, delay)
        for evm in self._vms:
            if evm.crashed:
                continue
            self.sim.after(
                delay, lambda v=evm: self._kick_front(v), f"replan:{evm.name}"
            )

    def _kick_front(self, vm: _ExecVM) -> None:
        front = self._front(vm)
        if front is not None:
            self._try_start(front)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute to completion; raises on deadlock."""
        for evm in self._vms:
            self.result.record(TraceEvent(0.0, "vm_start", "", evm.name))
            front = self._front(evm)
            if front is not None:
                self.sim.at(0.0, lambda t=front: self._try_start(t), f"kick:{front}")
        with self.tracer.span(
            "executor.run", cat="executor", workflow=self.schedule.workflow.name
        ):
            self.sim.run()
        missing = [t for t, st in self._state.items() if st.phase != DONE]
        if missing:
            raise SimulationError(
                f"simulation deadlocked; never completed: {sorted(missing)}"
            )
        billing = self.schedule.platform.billing
        faults = self.faults
        for evm in self._vms:
            finals = [t for t in evm.queue if self._state[t].vm is evm]
            if finals:
                starts = [self.result.task_start[t] for t in finals]
                ends = [self.result.task_finish[t] for t in finals]
                # last_active == max(ends) unless late attempts failed here
                end = max(max(ends), evm.last_active)
                window = (min(starts), evm.crashed_at if evm.crashed else end)
            elif evm.rent_open:
                # rented, but every execution attempt here was lost
                window = (
                    evm.rent_start,
                    evm.crashed_at if evm.crashed else evm.last_active,
                )
            else:
                continue  # never actually rented (e.g. replanned away)
            self.result.vm_windows[evm.name] = window
            if evm.crashed:
                # crash already recorded; rent runs to the BTU boundary
                uptime = evm.crashed_at - evm.rent_start
            else:
                self.result.record(TraceEvent(window[1], "vm_stop", "", evm.name))
                uptime = window[1] - evm.rent_start
            if faults is not None:
                self.result.vm_costs[evm.name], _ = faults.close_vm(
                    billing,
                    evm.rent_start,
                    uptime,
                    evm.itype,
                    evm.region,
                    evm.purchase,
                    evm.useful_seconds,
                )
        if faults is not None:
            self.result.faults = faults.stats
        if self.tracer.enabled:
            self._emit_trace()
        if self.metrics is not None:
            self._emit_metrics()
        return self.result

    def _emit_trace(self) -> None:
        """Project the replay onto simulated-time trace tracks: one
        track per VM, its rent window enclosing its task spans, with
        fault events as instants."""
        tracer = self.tracer
        # Distinct track namespace per replay: several replays sharing a
        # tracer would otherwise interleave partially-overlapping spans
        # on one "vm0" track, which the trace nesting check rejects.
        run = tracer.next_run()
        for evm in self._vms:
            window = self.result.vm_windows.get(evm.name)
            if window is not None:
                tracer.complete(
                    f"rent:{evm.name}",
                    window[0],
                    window[1] - window[0],
                    tid=f"run{run}:{evm.name}",
                    cat="sim.vm",
                    itype=evm.itype.name,
                )
        for tid, start in self.result.task_start.items():
            finish = self.result.task_finish.get(tid)
            if finish is None:
                continue
            tracer.complete(
                tid,
                start,
                finish - start,
                tid=f"run{run}:{self._state[tid].vm.name}",
                cat="sim.task",
            )
        for ev in self.result.events:
            if ev.kind in (
                "task_fail",
                "vm_crash",
                "vm_boot_fail",
                "vm_preempt",
                "spot_warning",
            ):
                tracer.instant(
                    f"{ev.kind}:{ev.task_id or ev.vm}",
                    ts=ev.time,
                    tid=f"run{run}:{ev.vm}",
                    cat="sim.fault",
                    detail=ev.detail,
                )
        tracer.counter("sim.makespan_seconds", self.result.makespan)

    def _emit_metrics(self) -> None:
        """Roll the replay's facts into the active metrics registry."""
        m = self.metrics
        assert m is not None
        billing = self.schedule.platform.billing
        rented = 0
        for evm in self._vms:
            window = self.result.vm_windows.get(evm.name)
            if window is None:
                continue
            rented += 1
            uptime = (evm.crashed_at if evm.crashed else window[1]) - evm.rent_start
            m.inc("executor.btus_billed", billing.btus(max(uptime, 0.0)))
        m.inc("executor.runs")
        m.inc("executor.vms_rented", rented)
        m.inc("executor.tasks_executed", len(self._state))
        m.inc("sim.events_processed", self.sim.processed_events)
        m.inc("sim.simulated_seconds", self.result.makespan)
        if self.faults is not None:
            self.faults.emit_metrics(m)


def simulate_schedule(
    schedule: Schedule,
    check: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> SimulationResult:
    """Replay *schedule* through the DES; with *check*, assert the
    observed timings equal the planned ones."""
    result = ScheduleExecutor(schedule, tracer=tracer, metrics=metrics).run()
    if check:
        result.check_against(schedule)
    return result


def run_with_faults(
    schedule: Schedule,
    fault_plan: FaultPlan,
    recovery: "str | RecoveryPolicy | None" = "retry",
    runtime_fn: Callable[[str, float], float] | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> SimulationResult:
    """Convenience wrapper: replay *schedule* under *fault_plan*.

    Returns a :class:`SimulationResult` whose ``faults``/``vm_costs``
    fields carry the robustness accounting.
    """
    return ScheduleExecutor(
        schedule,
        runtime_fn=runtime_fn,
        fault_plan=fault_plan,
        recovery=recovery,
        tracer=tracer,
        metrics=metrics,
    ).run()
