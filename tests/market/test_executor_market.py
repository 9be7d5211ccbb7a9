"""Market behavior through the executors: preemption, grace warnings,
bidding-aware recovery, checkpointing, cold starts, and metrics."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.recovery import recovery_policy
from repro.experiments.config import strategy
from repro.market import (
    ConstantPrice,
    FallbackOnDemand,
    Market,
    RebidHigher,
    StepTracePrice,
    spot,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulator.executor import ScheduleExecutor, run_with_faults
from repro.simulator.faults import FaultPlan
from repro.simulator.online import run_online
from repro.workflows.generators import montage

PLATFORM = CloudPlatform.ec2()
#: one spike above a 0.5x bid between t=600 and t=4200
SPIKE = Market(
    StepTracePrice((0.0, 600.0, 4200.0), (0.3, 1.2, 0.3)), purchase=spot(0.5)
)


def spike_plan(seed=3):
    return FaultPlan(seed=seed, market=SPIKE)


def spike_sched(label="StartParNotExceed-s"):
    return strategy(label).run(montage(25), PLATFORM.with_market(SPIKE))


class TestStaticPreemption:
    def test_preemptions_fire_and_account(self):
        res = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        assert res.faults.preemptions > 0
        assert res.faults.grace_warnings == res.faults.preemptions
        assert res.faults.rebids > 0
        kinds = {e.kind for e in res.events}
        assert "vm_preempt" in kinds
        assert "spot_warning" in kinds
        assert "vm_crash" not in kinds  # price kills, not random crashes

    def test_rebid_decisions_tagged(self):
        res = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        tagged = [d for d in res.faults.decisions if "[rebid." in d]
        assert tagged and len(tagged) == res.faults.rebids

    def test_deterministic_across_runs(self):
        a = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        b = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        assert a.events == b.events
        assert a.faults.decisions == b.faults.decisions
        assert a.realized_cost == b.realized_cost

    def test_every_spot_rental_progresses_at_least_grace(self):
        # grace floor: even an underwater bid runs >= grace_seconds, so
        # the run terminates instead of thrashing
        res = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        assert all(t in res.task_finish for t in spike_sched().workflow.task_ids)

    def test_fallback_stops_the_bleeding(self):
        rebid = run_with_faults(spike_sched(), spike_plan(), recovery="rebid")
        fb = run_with_faults(spike_sched(), spike_plan(), recovery="fallback")
        # falling back to on-demand immediately caps preemptions at the
        # initial co-reclaimed fleet; re-bidding under the spike rebids
        # its replacements into the same spike at least as often
        assert fb.faults.preemptions <= rebid.faults.preemptions
        assert all("[rebid.fallback]" in d for d in fb.faults.decisions)


class TestBiddingRecoveryPolicies:
    @staticmethod
    def _preempt(purchase, attempt=1):
        from repro.core.recovery import FailureEvent

        return FailureEvent(
            task_id="t", vm_id=0, attempt=attempt, time=0.0,
            reason="spot_preempt", vm_alive=False, purchase=purchase,
        )

    def test_rebid_escalates_then_falls_back(self):
        pol = RebidHigher(step=2.0, max_bid=1.0)
        a1 = pol.on_task_failure(self._preempt(spot(0.4)))
        assert a1.purchase.bid_multiplier == pytest.approx(0.8)
        assert a1.tag == "rebid.higher"
        a2 = pol.on_task_failure(self._preempt(a1.purchase, attempt=2))
        assert not a2.purchase.is_spot
        assert a2.tag == "rebid.fallback"

    def test_fallback_always_on_demand(self):
        act = FallbackOnDemand().on_task_failure(self._preempt(spot(0.9)))
        assert not act.purchase.is_spot
        assert act.tag == "rebid.fallback"

    def test_non_preemption_delegates_to_base(self):
        from repro.core.recovery import FailureEvent

        pol = RebidHigher(base="retry")
        act = pol.on_task_failure(
            FailureEvent(
                task_id="t", vm_id=0, attempt=1, time=0.0,
                reason="task", vm_alive=True, purchase=spot(0.4),
            )
        )
        assert act.kind == "retry"
        assert act.tag == ""

    def test_policies_registered_lazily(self):
        assert recovery_policy("rebid").name == "rebid"
        assert recovery_policy("fallback").name == "fallback"

    def test_rebid_validation(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            RebidHigher(step=1.0)
        with pytest.raises(SchedulingError):
            RebidHigher(max_bid=0.0)

    @pytest.mark.parametrize("kwarg", ["step", "max_bid"])
    def test_rebid_rejects_nan(self, kwarg):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match=kwarg.replace("_", ".")):
            RebidHigher(**{kwarg: float("nan")})

    @pytest.mark.parametrize("cls", [RebidHigher, FallbackOnDemand])
    def test_restart_cost_rejects_nan(self, cls):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match="restart_cost_seconds"):
            cls(restart_cost_seconds=float("nan"))


class TestCheckpointOnWarning:
    def test_checkpoint_reduces_waste(self):
        plain = run_with_faults(
            spike_sched(), spike_plan(), recovery=RebidHigher()
        )
        ckpt = run_with_faults(
            spike_sched(),
            spike_plan(),
            recovery=RebidHigher(
                checkpoint_on_warning=True, restart_cost_seconds=10.0
            ),
        )
        assert ckpt.faults.preemptions == plain.faults.preemptions
        assert (
            ckpt.faults.wasted_task_seconds < plain.faults.wasted_task_seconds
        )

    def test_checkpoint_online_too(self):
        wf = montage(25)
        plain = run_online(
            wf,
            PLATFORM.with_market(SPIKE),
            policy="StartParNotExceed",
            recovery=RebidHigher(),
            fault_plan=spike_plan(),
        )
        ckpt = run_online(
            wf,
            PLATFORM.with_market(SPIKE),
            policy="StartParNotExceed",
            recovery=RebidHigher(
                checkpoint_on_warning=True, restart_cost_seconds=10.0
            ),
            fault_plan=spike_plan(),
        )
        assert ckpt.faults.wasted_task_seconds < plain.faults.wasted_task_seconds

    @pytest.mark.parametrize(
        "seed, policy", [(0, "StartParNotExceed"), (5, "AllParNotExceed")]
    )
    def test_online_checkpoints_only_the_running_attempt(
        self, monkeypatch, seed, policy
    ):
        """A warning saves progress of a placed attempt that has started,
        as the replay saves ``vm.running``; a retry waiting out its
        backoff keeps none of the work its failed attempt lost."""
        from repro.experiments.scenarios import price_scenario
        from repro.simulator.faults import PLACED
        from repro.simulator.online import OnlineCloudExecutor

        saved = []
        checkpoint = OnlineCloudExecutor.checkpoint

        def watched(self, vm):
            before = dict(self.faults.ckpt)
            checkpoint(self, vm)
            now = self.sim.now
            for tid, done in self.faults.ckpt.items():
                if before.get(tid) != done:
                    start = self.task_start[tid]
                    assert self._state[tid].phase == PLACED, tid
                    assert start <= now, tid
                    assert done == min(now, self.task_finish[tid]) - start
                    saved.append(tid)

        monkeypatch.setattr(OnlineCloudExecutor, "checkpoint", watched)
        res = run_online(
            montage(25),
            PLATFORM,
            policy=policy,
            fault_plan=FaultPlan(
                seed=seed,
                market=price_scenario("spot_spike").market,
                task_fail_prob=0.3,
            ),
            recovery=RebidHigher(
                base="retry", checkpoint_on_warning=True, backoff_base=300
            ),
        )
        assert res.faults.grace_warnings > 0
        assert saved  # a running attempt was checkpointed


class TestOnlinePreemption:
    def test_preemptions_and_rebids_online(self):
        res = run_online(
            montage(25),
            PLATFORM.with_market(SPIKE),
            policy="StartParNotExceed",
            recovery="rebid",
            fault_plan=spike_plan(),
        )
        assert res.faults.preemptions > 0
        assert res.faults.grace_warnings == res.faults.preemptions
        assert res.faults.rebids > 0
        kinds = {e.kind for e in res.events}
        assert "vm_preempt" in kinds and "spot_warning" in kinds

    def test_online_deterministic(self):
        def run():
            return run_online(
                montage(25),
                PLATFORM.with_market(SPIKE),
                policy="StartParNotExceed",
                recovery="rebid",
                fault_plan=spike_plan(),
            )

        a, b = run(), run()
        assert a.events == b.events
        assert a.rent_cost == b.rent_cost
        assert a.faults.decisions == b.faults.decisions


class TestColdStarts:
    COLD = FaultPlan(
        seed=5,
        boot_cold_seconds=90.0,
        boot_delay_dist="deterministic",
    )

    def test_cold_start_delays_online_makespan(self):
        plat = CloudPlatform.ec2(boot_seconds=30.0, prebooted=False)
        base = run_online(montage(25), plat, policy="StartParNotExceed")
        cold = run_online(
            montage(25), plat, policy="StartParNotExceed", fault_plan=self.COLD
        )
        assert cold.makespan > base.makespan

    def test_warm_pool_softens_the_cold(self):
        plat = CloudPlatform.ec2(boot_seconds=30.0, prebooted=False)
        cold = run_online(
            montage(25), plat, policy="StartParNotExceed", fault_plan=self.COLD
        )
        import dataclasses

        warm_plan = dataclasses.replace(
            self.COLD, boot_warm_pool=8, boot_warm_seconds=2.0
        )
        warm = run_online(
            montage(25), plat, policy="StartParNotExceed", fault_plan=warm_plan
        )
        assert warm.makespan <= cold.makespan

    def test_cold_start_static_executor(self):
        plat = CloudPlatform.ec2(boot_seconds=30.0, prebooted=False)
        sched = strategy("StartParNotExceed-s").run(montage(25), plat)
        base = ScheduleExecutor(sched).run()
        cold = ScheduleExecutor(sched, fault_plan=self.COLD).run()
        assert cold.makespan > base.makespan
        cold2 = ScheduleExecutor(sched, fault_plan=self.COLD).run()
        assert cold.events == cold2.events


class TestMarketMetrics:
    def test_counters_emitted_on_market_runs(self):
        reg = MetricsRegistry()
        with reg.activate():  # decision counters use the ambient registry
            ScheduleExecutor(
                spike_sched(), fault_plan=spike_plan(), recovery="rebid",
                metrics=reg,
            ).run()
        d = reg.as_dict()
        counters = d.get("counters", d)
        flat = {str(k): v for k, v in counters.items()}
        assert flat.get("faults.preemptions", 0) > 0
        assert flat.get("faults.grace_warnings", 0) > 0
        assert flat.get("recovery.rebids", 0) > 0
        assert any(k.startswith("recovery.decision.rebid") for k in flat)

    def test_counters_identical_across_reruns(self):
        def counters():
            reg = MetricsRegistry()
            ScheduleExecutor(
                spike_sched(), fault_plan=spike_plan(), recovery="rebid",
                metrics=reg,
            ).run()
            return reg.as_dict()

        assert counters() == counters()
