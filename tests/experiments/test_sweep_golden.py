"""Cross-commit golden digests of the sweep outputs.

``tests/simulator/test_golden_outputs.py`` pins what the execution
surfaces simulate; this file pins what the experiment sweeps built on
them report.  Each case runs one small grid -- the fault, pricing and
service sweeps, a six-candidate autotune search, and the ``faults`` and
``pricing`` CLI artifacts in ``--quick`` mode -- and hashes its
``to_json()`` (key order included) and its ``summary()`` text.

The fault and pricing grids carry one strategy whose scheduler raises,
and the fault grid one intensity high enough to exhaust the retry
budget, so the captured-failure labels are pinned too.

A refactor that promises byte identity must leave every digest as it
is.  A change that means to alter a sweep's output re-pins the affected
digests and says why.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import json

import pytest

from repro.experiments.cli import main
from repro.experiments.config import StrategySpec, strategy
from repro.experiments.faults import FAULT_POLICY_LABELS, run_fault_sweep
from repro.experiments.pricing import run_pricing_sweep
from repro.experiments.scenarios import price_scenarios
from repro.experiments.service import run_service_sweep
from repro.tune import autotune
from tests.oracles.py312_sum import sum_312


def _explode():
    raise RuntimeError("scheduler exploded")


def _strategies():
    return [strategy(lbl) for lbl in FAULT_POLICY_LABELS] + [
        StrategySpec("Exploding-s", _explode)
    ]


def _fault():
    return run_fault_sweep(
        strategies=_strategies(), intensities=(0.0, 1.0, 8.0), fault_seeds=2
    )


def _pricing():
    return run_pricing_sweep(
        strategies=_strategies(), scenarios=price_scenarios(), seeds=2
    )


def _service():
    return run_service_sweep(count=10, tenants=2, seeds=2)


def _tune():
    return autotune(n_candidates=6)


SWEEPS = {
    "fault": _fault,
    "pricing": _pricing,
    "service": _service,
    "tune": _tune,
}

#: SHA-256 of ``json.dumps(to_json())`` and of ``summary()`` per sweep
GOLDEN = {
    "fault": (
        "f03564c590e5136f60f0e60402d5834e143923a72694647895de8bc17664305a",
        "46320db60e87d9ed3c8c55fac1ef179abb1dabdec7a5686b3e9fff625d67566f",
    ),
    "pricing": (
        "635eb07dd9411f08f509614b626bd094172c6ea2b18dd5bda45192f9f52d5833",
        "f74fddc931e68521eae248cef5f9f41c4948346238a11a6c3757346324c52d49",
    ),
    "service": (
        "e93b1f6f961f1a08d0dcf81411cb2b33d34bd005226556d7126ca05606fd5054",
        "69e7e14fc2635e69ab9eff3dfe5a46188d6d083956891e1edd4979263cd7129a",
    ),
    "tune": (
        "02dad02f9918494050d68411275d6279d5bda673886cced8416e84a912c1bf43",
        "00c1bfcb03fd42726199f209dcfd35f0d8c6204e739cbdddde2b553f7210cdcd",
    ),
}

#: SHA-256 of the stdout of ``repro-experiments <artifact> --quick``
GOLDEN_CLI = {
    "faults": "9005ab122ef0f82c34d8cd862364f5aaa8e73dbbb623edd43f88a204693d8302",
    "pricing": "e94c15a334fb92e094448684193dafa96a42bcab665a923f59b65f63593d6489",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    result = SWEEPS[name]()
    got = (_sha(json.dumps(result.to_json())), _sha(result.summary()))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", ["fault", "pricing", "tune"])
def test_cost_sweeps_hold_under_compensated_sum(name, monkeypatch):
    """The sweeps that report realized and planned rent keep their
    digests with ``builtins.sum`` replaced by CPython 3.12's
    compensated sum (``tests/oracles/py312_sum.py``): every float total
    they reach adds left to right through :mod:`repro.util.totals`.
    This emulates 3.12 on the host's Python; a real 3.12 interpreter
    is not part of the test run."""
    monkeypatch.setattr(builtins, "sum", sum_312)
    result = SWEEPS[name]()
    got = (_sha(json.dumps(result.to_json())), _sha(result.summary()))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("artifact", sorted(GOLDEN_CLI))
def test_cli_quick_matches_golden(artifact):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([artifact, "--quick"]) == 0
    assert _sha(out.getvalue()) == GOLDEN_CLI[artifact]
