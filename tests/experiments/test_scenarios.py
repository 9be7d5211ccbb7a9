"""Tests for the pareto/best/worst scenario builders."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.scenarios import paper_scenarios, scenario
from repro.workflows.generators import montage


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestPaperScenarios:
    def test_three_scenarios(self, platform):
        names = [s.name for s in paper_scenarios(platform)]
        assert names == ["pareto", "best", "worst"]

    def test_lookup(self, platform):
        assert scenario("PARETO", platform).name == "pareto"
        with pytest.raises(ExperimentError):
            scenario("typical", platform)

    def test_map(self, platform):
        names = {s.name for s in paper_scenarios(platform)}
        assert names == {"pareto", "best", "worst"}


class TestApply:
    def test_pareto_uses_seed(self, platform):
        sc = scenario("pareto", platform)
        a = sc.apply(montage(), seed=1)
        b = sc.apply(montage(), seed=1)
        c = sc.apply(montage(), seed=2)
        assert [t.work for t in a.tasks] == [t.work for t in b.tasks]
        assert [t.work for t in a.tasks] != [t.work for t in c.tasks]

    def test_best_ignores_seed(self, platform):
        sc = scenario("best", platform)
        a = sc.apply(montage(), seed=1)
        b = sc.apply(montage(), seed=999)
        assert [t.work for t in a.tasks] == [t.work for t in b.tasks]

    def test_best_property(self, platform):
        wf = scenario("best", platform).apply(montage())
        assert sum(t.work for t in wf.tasks) <= platform.btu_seconds + 1e-9

    def test_worst_property(self, platform):
        wf = scenario("worst", platform).apply(montage())
        max_speedup = max(t.speedup for t in platform.catalog.values())
        for t in wf.tasks:
            assert t.work / max_speedup > platform.btu_seconds
