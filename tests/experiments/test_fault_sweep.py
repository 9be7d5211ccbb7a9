"""End-to-end tests of the fault-intensity experiment and its CLI."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.faults import (
    DEFAULT_INTENSITIES,
    FAULT_POLICY_LABELS,
    render_fault_sweep,
    run_fault_sweep,
)
from repro.simulator.faults import FaultPlan

#: small but non-trivial grid shared by the tests below
_QUICK = dict(intensities=(0.0, 1.0), fault_seeds=2)


@pytest.fixture(scope="module")
def sweep():
    return run_fault_sweep(**_QUICK)


class TestRunFaultSweep:
    def test_covers_the_five_policies(self, sweep):
        assert sweep.strategies() == list(FAULT_POLICY_LABELS)
        assert sweep.intensities() == [0.0, 1.0]
        # 5 policies x 2 intensities x 2 seeds
        assert len(sweep.cells) == 20
        assert sweep.complete

    def test_zero_intensity_matches_plan(self, sweep):
        for label in sweep.strategies():
            for cell in sweep.group(label, 0.0):
                assert cell.stats.failures == 0
                assert cell.makespan_delta == pytest.approx(0.0, abs=1e-6)
                assert cell.cost_delta == pytest.approx(0.0, abs=1e-9)

    def test_faults_fire_at_full_intensity(self, sweep):
        fired = sum(
            c.stats.failures
            for label in sweep.strategies()
            for c in sweep.group(label, 1.0)
        )
        assert fired > 0

    def test_reports_robustness_metrics(self, sweep):
        hit = [c for c in sweep.cells if c.stats.failures > 0]
        assert hit
        for cell in hit:
            assert cell.stats.wasted_btu_seconds >= 0
            assert cell.makespan >= cell.planned_makespan - 1e-6
            assert cell.cost > 0

    def test_parallel_matches_serial(self):
        serial = run_fault_sweep(**_QUICK)
        threaded = run_fault_sweep(backend="thread", jobs=2, **_QUICK)
        key = lambda c: (c.strategy, c.intensity, c.fault_seed)  # noqa: E731
        assert [
            (key(a), a.makespan, a.cost, a.stats.decisions)
            for a in serial.cells
        ] == [
            (key(b), b.makespan, b.cost, b.stats.decisions)
            for b in threaded.cells
        ]

    def test_unrecoverable_cells_are_captured(self):
        doomed = run_fault_sweep(
            base_plan=FaultPlan(task_fail_prob=0.97),
            intensities=(1.0,),
            fault_seeds=1,
            strategies=[_spec()],
            recovery="retry",
        )
        # with p=0.97 and 8 attempts some task exhausts its budget; the
        # sweep survives either way and reports the aborted cell
        assert len(doomed.cells) + len(doomed.failures) == 1
        if doomed.failures:
            assert "FaultError" in doomed.failures[0].error

    def test_axis_validation(self):
        with pytest.raises(ExperimentError):
            run_fault_sweep(intensities=(), fault_seeds=1)
        with pytest.raises(ExperimentError):
            run_fault_sweep(workflow_name="not-a-workflow")


def _spec():
    from repro.experiments.config import strategy

    return strategy("OneVMperTask-s")


class TestRenderFaultSweep:
    def test_table_lists_every_policy_and_intensity(self, sweep):
        text = render_fault_sweep(sweep)
        for label in FAULT_POLICY_LABELS:
            assert label in text
        for column in ("failures", "retries", "wasted BTU-s", "Δmakespan", "Δcost"):
            assert column in text

    def test_failures_appended(self):
        from repro.experiments.parallel import CellFailure
        from repro.experiments.faults import FaultSweepResult

        sweep = FaultSweepResult(
            recovery="retry",
            base_plan=FaultPlan(task_fail_prob=0.1),
            failures=[
                CellFailure(
                    label="X/montage@x1#s0",
                    error="FaultError: gave up",
                    traceback="",
                )
            ],
        )
        text = render_fault_sweep(sweep)
        assert "unrecovered cells (1)" in text
        assert "FaultError" in text


class TestFaultsCli:
    def test_cli_faults_quick(self, capsys, tmp_path):
        out = tmp_path / "faults.txt"
        code = main(
            [
                "faults",
                "--quick",
                "--workflow",
                "montage",
                "--recovery",
                "replan",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "Fault-intensity sweep" in text
        assert "recovery=replan" in text
        for label in FAULT_POLICY_LABELS:
            assert label in text

    def test_cli_default_grid_is_sane(self):
        assert DEFAULT_INTENSITIES[0] == 0.0
        assert len(DEFAULT_INTENSITIES) >= 3
