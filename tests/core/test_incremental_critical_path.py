"""CPA-Eager's incremental critical path equals a full
``Workflow.critical_path`` sweep after every one-task upgrade.

``tests/core/test_dynamic_oracle.py`` compares whole CPA-Eager runs,
where transfer times are seconds against runtimes of thousands; here
the tasks are short and the edges heavy, so a stale transfer time on
any upgraded edge changes the path or its length.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance import SMALL, next_faster
from repro.cloud.platform import CloudPlatform
from repro.core.allocation.cpa_eager import _CriticalPath
from repro.workflows.generators import random_layered

PLATFORM = CloudPlatform.ec2()


def _data_heavy(seed: int):
    """A random layered DAG with short tasks behind heavy edges."""
    wf = random_layered(layers=5, width_range=(1, 5), edge_density=0.6, seed=seed)
    works = {t: 10.0 + (i * 13) % 90 for i, t in enumerate(wf.task_ids)}
    sizes = {(u, v): 5.0 + (i * 37) % 200 for i, (u, v, _) in enumerate(wf.edges())}
    return wf.with_works(works).with_data_sizes(sizes)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_incremental_path_matches_full_sweep(seed, data):
    """Three rounds of upgrading every task once, each round in a drawn
    order, take every task small -> xlarge; an edge's link speed
    changes when its later-upgraded end reaches large."""
    wf = _data_heavy(seed)
    ids = wf.task_ids
    types = {t: SMALL for t in ids}
    path = _CriticalPath(wf, PLATFORM, types)
    for _ in range(3):
        for tid in data.draw(st.permutations(ids)):
            faster = next_faster(types[tid])
            types[tid] = faster
            path.upgraded(tid)
            full, length = wf.critical_path(
                exec_time=lambda t: PLATFORM.runtime(wf.task(t), types[t]),
                transfer_time=lambda u, v: PLATFORM.transfer_time(
                    wf.data_gb(u, v), types[u], types[v]
                ),
            )
            assert path.path == full
            assert max(path.dist) == length
            assert path.exec_time(tid) == PLATFORM.runtime(wf.task(tid), faster)
