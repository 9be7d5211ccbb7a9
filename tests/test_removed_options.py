"""Scheduling and sweep options whose default was the only value any
caller used are gone: passing one is python's own :class:`TypeError`.

Each call below is otherwise valid (or fails fast on an empty axis), so
the only thing under test is the keyword itself.
"""

import pytest

from repro.cloud.instance import SMALL
from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import LevelScheduler
from repro.core.allocation.locality import LocalityHeftScheduler
from repro.core.allocation.ranking import heft_order, level_order, upward_rank
from repro.core.builder import ScheduleBuilder
from repro.core.provisioning.start_par import StartParNotExceed
from repro.experiments.faults import run_fault_sweep
from repro.experiments.parallel import ProcessBackend, make_backend, map_guarded
from repro.experiments.pricing import run_pricing_sweep
from repro.experiments.runner import run_sweep
from repro.experiments.service import run_service_sweep
from repro.kernels.columnar import upward_rank_values
from repro.tune.search import autotune
from repro.workflows.generators import sequential

PLATFORM = CloudPlatform.ec2()
WF = sequential()

REMOVED = {
    "StartParNotExceed(try_all_vms)": lambda: StartParNotExceed(try_all_vms=True),
    "LevelScheduler(descending_exec)": lambda: LevelScheduler(
        "AllParExceed", descending_exec=True
    ),
    "level_order(descending_exec)": lambda: level_order(
        WF, PLATFORM, SMALL, descending_exec=True
    ),
    "HeftScheduler(include_transfers)": lambda: HeftScheduler(
        "OneVMperTask", include_transfers=True
    ),
    "LocalityHeftScheduler(include_transfers)": lambda: LocalityHeftScheduler(
        include_transfers=True
    ),
    "upward_rank(include_transfers)": lambda: upward_rank(
        WF, PLATFORM, SMALL, include_transfers=True
    ),
    "heft_order(include_transfers)": lambda: heft_order(
        WF, PLATFORM, SMALL, include_transfers=True
    ),
    "upward_rank_values(include_transfers)": lambda: upward_rank_values(
        WF, PLATFORM, SMALL, include_transfers=True
    ),
    "ScheduleBuilder(fleet)": lambda: ScheduleBuilder(WF, PLATFORM, SMALL, fleet=None),
    "run_sweep(on_error)": lambda: run_sweep(workflows={}, on_error="capture"),
    "map_guarded(retries)": lambda: map_guarded(
        make_backend("serial"), str, [], retries=0
    ),
    "run_sweep(retries)": lambda: run_sweep(workflows={}, retries=0),
    "run_fault_sweep(retries)": lambda: run_fault_sweep(intensities=[], retries=0),
    "run_pricing_sweep(retries)": lambda: run_pricing_sweep(seeds=[], retries=0),
    "run_service_sweep(retries)": lambda: run_service_sweep(seeds=[], retries=0),
    "autotune(retries)": lambda: autotune(n_candidates=0, retries=0),
    "ProcessBackend(min_parallel_seconds)": lambda: ProcessBackend(
        jobs=2, min_parallel_seconds=-0.1
    ),
}


@pytest.mark.parametrize("call", sorted(REMOVED))
def test_removed_option_is_a_type_error(call):
    keyword = call[call.index("(") + 1 : -1]
    with pytest.raises(TypeError) as info:
        REMOVED[call]()
    message = str(info.value)
    assert keyword in message or "takes no arguments" in message
