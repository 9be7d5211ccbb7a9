"""The repro.api facade: the blessed surface must exist, be documented
and keep pointing at the canonical implementations."""

import ast
import pydoc
from pathlib import Path

import repro
import repro.api as api

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestSurface:
    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_help_renders_blessed_surface(self):
        # the acceptance check: `import repro.api as api; help(api)`
        text = pydoc.plain(pydoc.render_doc(api))
        for name in ("run_sweep", "simulate_schedule", "Tracer",
                     "MetricsRegistry", "load_manifest"):
            assert name in text
        assert "stable, supported surface" in text

    def test_reexports_are_the_canonical_objects(self):
        from repro.core.constraints import Constraints
        from repro.experiments import run_sweep, replicate
        from repro.experiments.faults import run_fault_sweep
        from repro.experiments.result import ResultBase
        from repro.simulator import simulate_schedule, run_online
        from repro.obs import Tracer, MetricsRegistry
        from repro.tune import autotune

        assert api.run_sweep is run_sweep
        assert api.replicate is replicate
        assert api.run_fault_sweep is run_fault_sweep
        assert api.simulate_schedule is simulate_schedule
        assert api.run_online is run_online
        assert api.Tracer is Tracer
        assert api.MetricsRegistry is MetricsRegistry
        assert api.autotune is autotune
        assert api.Constraints is Constraints
        assert api.ResultBase is ResultBase

    def test_tune_surface_is_blessed(self):
        for name in (
            "autotune",
            "Constraints",
            "ConstraintViolation",
            "Candidate",
            "CandidateOutcome",
            "TuneResult",
            "TuneSpace",
            "ResultBase",
        ):
            assert name in api.__all__, name

    def test_reachable_from_package_root(self):
        assert repro.api is api
        assert repro.obs.Tracer is api.Tracer

    def test_version_matches_package(self):
        assert api.__version__ == repro.__version__


class TestSingleExportList:
    """``repro`` re-exports ``repro.api``; there is no second list."""

    def test_package_all_is_api_all(self):
        assert repro.__all__ == api.__all__

    def test_package_names_are_api_objects(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_examples_import_only_blessed_names(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert scripts
        stray = []
        for script in scripts:
            tree = ast.parse(script.read_text(), filename=str(script))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "repro",
                    "repro.api",
                ):
                    stray += [
                        f"{script.name}: {alias.name}"
                        for alias in node.names
                        if alias.name not in api.__all__
                    ]
        assert stray == []


class TestQuickstart:
    def test_readme_quickstart_runs_against_api_only(self):
        platform = api.CloudPlatform.ec2()
        sched = api.HeftScheduler("StartParNotExceed").schedule(
            api.montage(), platform, itype=platform.itype("medium")
        )
        sched.validate()
        api.simulate_schedule(sched)
        ref = api.reference_schedule(api.montage(), platform)
        m = api.compare_to_reference(sched, ref)
        assert m.vm_count >= 1
