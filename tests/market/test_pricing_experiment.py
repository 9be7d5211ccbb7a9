"""The pricing sweep: grid mechanics, determinism, CLI artifact."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.experiments.pricing import (
    BootSetting,
    paper_boot_settings,
    render_pricing_sweep,
    run_pricing_sweep,
)
from repro.experiments.scenarios import price_scenario, price_scenarios
from repro.workflows.generators import montage

PLATFORM = CloudPlatform.ec2()


@pytest.fixture(scope="module")
def small_sweep():
    return run_pricing_sweep(
        platform=PLATFORM,
        workflow=montage(25),
        workflow_name="montage",
        seeds=2,
    )


class TestPriceScenarios:
    def test_family_has_control_and_spot_regimes(self):
        names = [s.name for s in price_scenarios()]
        assert "on_demand" in names
        assert sum(1 for n in names if n.startswith("spot")) >= 3

    def test_lookup(self):
        assert price_scenario("spot_spike").name == "spot_spike"
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            price_scenario("nope")

    def test_boot_settings(self):
        boots = paper_boot_settings()
        names = [b.name for b in boots]
        assert names == ["prebooted", "cold_start"]
        cold = boots[1]
        assert not cold.prebooted and cold.cold_seconds > 0


class TestPricingSweep:
    def test_full_grid(self, small_sweep):
        # 5 policies x 4 scenarios x 2 boots x 2 seeds
        assert len(small_sweep.cells) == 80
        assert small_sweep.complete
        assert len(small_sweep.scenarios()) == 4
        assert len(small_sweep.boots()) == 2
        assert len(small_sweep.strategies()) == 5

    def test_control_cell_is_faithful(self, small_sweep):
        # the on_demand control never preempts and realizes the plan
        for boot in ("prebooted",):
            for label in small_sweep.strategies():
                for cell in small_sweep.group("on_demand", boot, label):
                    assert cell.stats.preemptions == 0
                    assert cell.makespan_delta == 0.0
                    assert cell.cost_delta == 0.0

    def test_spot_spike_preempts_and_saves_or_costs(self, small_sweep):
        cells = [
            c
            for label in small_sweep.strategies()
            for c in small_sweep.group("spot_spike", "prebooted", label)
        ]
        assert any(c.stats.preemptions > 0 for c in cells)
        assert any(c.stats.rebids > 0 for c in cells)

    def test_frontier_nonempty_everywhere(self, small_sweep):
        for sc in small_sweep.scenarios():
            for boot in small_sweep.boots():
                frontier = small_sweep.frontier(sc, boot)
                assert frontier, f"empty frontier for {sc}/{boot}"
                assert set(frontier) <= set(small_sweep.strategies())

    def test_backend_identity(self, small_sweep):
        threaded = run_pricing_sweep(
            platform=PLATFORM,
            workflow=montage(25),
            workflow_name="montage",
            seeds=2,
            jobs=4,
            backend="thread",
        )
        assert render_pricing_sweep(threaded) == render_pricing_sweep(
            small_sweep
        )

    def test_render_mentions_pareto(self, small_sweep):
        text = render_pricing_sweep(small_sweep)
        assert "Pareto frontier (fast -> cheap):" in text
        assert "scenario=spot_spike" in text

    def test_custom_axes(self):
        sweep = run_pricing_sweep(
            platform=PLATFORM,
            workflow=montage(25),
            workflow_name="montage",
            scenarios=[price_scenario("on_demand")],
            boots=[BootSetting("prebooted")],
            seeds=1,
        )
        assert len(sweep.cells) == 5

    def test_validation(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_pricing_sweep(workflow=montage(25), seeds=0)

    def test_repeated_axis_values_rejected(self):
        from repro.errors import ExperimentError

        spot = price_scenario("spot_spike")
        with pytest.raises(ExperimentError, match="axis 'scenarios' repeats"):
            run_pricing_sweep(workflow=montage(25), scenarios=[spot, spot], seeds=1)
        with pytest.raises(ExperimentError, match="axis 'boots' repeats"):
            run_pricing_sweep(
                workflow=montage(25), boots=[BootSetting("prebooted")] * 2, seeds=1
            )
        with pytest.raises(ExperimentError, match="axis 'seeds' repeats 3"):
            run_pricing_sweep(workflow=montage(25), seeds=(3, 3))

    def test_unknown_workflow_suggests_a_name(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="did you mean 'cstem'"):
            run_pricing_sweep(workflow_name="cstme")


class TestPricingCLI:
    def test_artifact_runs_and_reproduces(self, tmp_path):
        from repro.experiments.cli import main

        out1 = tmp_path / "pricing1.txt"
        out2 = tmp_path / "pricing2.txt"
        argv = [
            "pricing",
            "--workflow",
            "montage",
            "--quick",
            "--price-seeds",
            "1",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        text = out1.read_text()
        assert "Pricing sweep" in text
        assert "Pareto frontier" in text
        # byte-for-byte reproducible artifact
        assert text == out2.read_text()
        # a manifest rides along with any file output
        manifests = list(tmp_path.glob("*manifest*"))
        assert manifests

    def test_artifact_reproduces_from_manifest(self, tmp_path):
        from repro.experiments.cli import main
        from repro.obs.manifest import load_manifest, manifest_argv

        out1 = tmp_path / "a.txt"
        main(
            [
                "pricing",
                "--workflow",
                "montage",
                "--quick",
                "--price-seeds",
                "1",
                "--out",
                str(out1),
                "--manifest",
                str(tmp_path / "m.json"),
            ]
        )
        manifest = load_manifest(tmp_path / "m.json")
        # output paths are dropped from the recorded argv: append fresh
        # destinations and replay the run
        argv = manifest_argv(manifest)
        out2 = tmp_path / "b.txt"
        assert main(argv + ["--out", str(out2)]) == 0
        assert out2.read_text() == out1.read_text()

    def test_unknown_boot_setting_is_an_error(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "pricing",
                    "--boot-settings",
                    "hibernate",
                    "--out",
                    str(tmp_path / "x.txt"),
                ]
            )
