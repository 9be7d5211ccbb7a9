"""The autotune search space: validated axes, deterministic sampling."""

import numpy as np
import pytest

from repro.errors import ExperimentError, ReproError
from repro.tune import Candidate, TuneSpace


class TestCandidate:
    def test_label_spells_every_axis(self):
        c = Candidate(
            policy="StartParNotExceed",
            flavor="medium",
            reduction="chains",
            recovery="retry",
            purchase="spot_calm",
        )
        assert c.label == "StartParNotExceed-m/chains/retry@spot_calm"
        assert c.spec().label == "StartParNotExceed-m"

    def test_unknown_names_suggest(self):
        with pytest.raises(ExperimentError, match="StartParNotExceed"):
            Candidate(
                policy="StartParNotExceeed",
                flavor="small",
                reduction="none",
                recovery="retry",
                purchase="on_demand",
            )
        with pytest.raises(ExperimentError, match="chains"):
            TuneSpace(reductions=("chanis",))
        with pytest.raises(ExperimentError, match="spot_calm"):
            TuneSpace(purchases=("spot_clam",))
        with pytest.raises(ReproError, match="resubmit"):
            TuneSpace(recoveries=("resubmti",))

    def test_reduce_chains_shrinks_sequential_dag(self):
        import repro.api as api

        c = Candidate(
            policy="OneVMperTask",
            flavor="small",
            reduction="chains",
            recovery="retry",
            purchase="on_demand",
        )
        wf = api.sequential()
        assert len(c.reduce(wf).tasks) < len(wf.tasks)


class TestTuneSpace:
    def test_default_space_covers_the_full_grid(self):
        space = TuneSpace()
        assert space.size == len(space.all_candidates())
        # 5 policies x 3 flavors x 2 reductions x 3 recoveries x 4 purchases
        assert space.size == 360

    def test_sample_is_seed_deterministic_without_replacement(self):
        space = TuneSpace()
        a = space.sample(np.random.default_rng(9), 20)
        b = space.sample(np.random.default_rng(9), 20)
        assert a == b
        assert len(set(a)) == 20
        assert space.sample(np.random.default_rng(10), 20) != a

    def test_sample_caps_at_space_size(self):
        space = TuneSpace(
            policies=("OneVMperTask",),
            flavors=("small",),
            reductions=("none",),
            recoveries=("retry",),
        )
        assert len(space.sample(np.random.default_rng(0), 99)) == space.size

    def test_json_round_trip_and_unknown_axis(self):
        space = TuneSpace(policies=("AllParExceed",), flavors=("large", "small"))
        assert TuneSpace.from_json(space.to_json()) == space
        with pytest.raises(ExperimentError, match="policies"):
            TuneSpace.from_json({"polices": ["AllParExceed"]})

    def test_empty_or_repeated_axis_is_refused(self):
        with pytest.raises(ExperimentError, match="at least one value on axis 'purchases'"):
            TuneSpace(purchases=())
        # "s" normalizes to "small", so the axis repeats after validation
        with pytest.raises(ExperimentError, match="axis 'flavors' repeats 'small'"):
            TuneSpace(flavors=("small", "s"))
