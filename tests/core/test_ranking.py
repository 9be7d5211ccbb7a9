"""Tests for HEFT upward rank and level ordering."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.ranking import heft_order, level_order, upward_rank
from repro.workflows.generators import montage, random_layered


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestUpwardRank:
    def test_exit_task_rank_is_own_runtime(self, diamond, platform):
        ranks = upward_rank(diamond, platform, platform.itype("small"))
        assert ranks["D"] == pytest.approx(300.0)

    def test_parent_rank_exceeds_children(self, diamond, platform):
        ranks = upward_rank(diamond, platform, platform.itype("small"))
        assert ranks["A"] > ranks["B"] > ranks["D"]
        assert ranks["A"] > ranks["C"] > ranks["D"]

    def test_recurrence(self, diamond, platform):
        small = platform.itype("small")
        ranks = upward_rank(diamond, platform, small)
        c_bd = platform.transfer_time(1.0, small, small)
        expected_b = 1200.0 + c_bd + ranks["D"]
        assert ranks["B"] == pytest.approx(expected_b)

    def test_itype_scales_ranks(self, diamond, platform):
        """The same recurrence on ``large``: runtimes shrink by its 2.1x
        speedup and edges cost its own (faster-link) transfer time."""
        large = platform.itype("large")
        ranks = upward_rank(diamond, platform, large)
        assert ranks["D"] == pytest.approx(300.0 / 2.1)
        c_bd = platform.transfer_time(1.0, large, large)
        assert ranks["B"] == pytest.approx(1200.0 / 2.1 + c_bd + ranks["D"])


class TestHeftOrder:
    def test_descending_rank_is_topological(self, platform):
        """rank(parent) > rank(child) => the order respects every edge."""
        for seed in range(5):
            wf = random_layered(layers=5, seed=seed)
            order = heft_order(wf, platform, platform.itype("small"))
            pos = {t: i for i, t in enumerate(order)}
            for u, v, _ in wf.edges():
                assert pos[u] < pos[v]

    def test_covers_all_tasks_once(self, platform):
        wf = montage()
        order = heft_order(wf, platform, platform.itype("small"))
        assert sorted(order) == sorted(wf.task_ids)

    def test_deterministic(self, platform):
        wf = montage()
        a = heft_order(wf, platform, platform.itype("small"))
        b = heft_order(wf, platform, platform.itype("small"))
        assert a == b


class TestLevelOrder:
    def test_levels_in_dag_order(self, diamond, platform):
        lv = level_order(diamond, platform, platform.itype("small"))
        assert lv[0] == ["A"]
        assert lv[2] == ["D"]

    def test_descending_exec_within_level(self, diamond, platform):
        lv = level_order(diamond, platform, platform.itype("small"))
        assert lv[1] == ["B", "C"]  # B=1200 > C=900
