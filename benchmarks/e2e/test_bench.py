"""Self-test of the benchmark harness on tiny workload instances.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
the tier-1 ``testpaths``)."""

import gc
import re

import pytest

import ledger
import run
import workloads
from measure import run_pass

BENCH, SPEC = run.load_config()
REF = SPEC["calib_ref_s"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: big enough that harness bookkeeping is a small share of each
#: operation, small enough that the whole file runs in seconds
TINY = {
    "static-50k": {"projections": 300},
    "static-pareto-5k": {"projections": 300},
    "paper-sweep": {"sweeps": 1},
    "waas": {"count": 60, "tenants": 6},
}


def _patched_now():
    return [getattr(owner, attr) for owner, attr, _, _ in ledger._targets()]


@pytest.fixture(scope="module", params=list(TINY))
def measured(request):
    name = request.param
    params = {**SPEC["workloads"][name]["params"], **TINY[name]}
    instance = workloads.setup(name, SPEC["seed"], params)
    before, callbacks = _patched_now(), list(gc.callbacks)
    untraced, traced = run.measure_passes(instance, 0, True, REF)
    after = _patched_now()
    return {
        "name": name,
        "untraced": untraced,
        "traced": traced,
        "restored": all(a is b for a, b in zip(before, after))
        and gc.callbacks == callbacks,
    }


def test_declared_names_and_units_are_valid():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCH[section]]
        assert len(names) == len(set(names))
        for m in BENCH[section]:
            assert NAME.match(m["name"]) and len(m["name"]) <= 64, m
            assert m["unit"] and m["better"] in ("lower", "higher"), m
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])


def test_every_per_layer_metric_belongs_to_a_layer():
    for m in BENCH["per_layer"]:
        assert any(m["name"].startswith(key) for key in SPEC["layers"]), m["name"]


def test_every_declared_metric_is_emitted_with_its_unit(measured):
    untraced, traced = measured["untraced"], measured["traced"]
    for section, metrics in (
        ("end_to_end", run.end_to_end(untraced, [1.0],
                                      {m["name"]: m["unit"] for m in BENCH["end_to_end"]})),
        ("per_layer", run.per_layer(untraced, traced,
                                    {m["name"]: m["unit"] for m in BENCH["per_layer"]})),
    ):
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert set(metrics) == set(declared)
        for name, m in metrics.items():
            assert m["unit"] == declared[name]
            assert isinstance(m["value"], (int, float))
    assert all(m["value"] > 0 for m in run.end_to_end(
        untraced, [1.0], {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    ).values())


def test_traced_pass_computes_what_the_untraced_pass_does(measured):
    (untraced,), ((traced, _),) = measured["untraced"], measured["traced"]
    assert untraced.failed == traced.failed == 0
    assert traced.digest == untraced.digest


def test_self_time_within_total_and_top_spans_cover_the_pass(measured):
    (_, metrics), = measured["traced"]
    for name, value in metrics.items():
        if name.endswith("_self_s"):
            total = metrics[name[: -len("_self_s")] + "_s"]
            assert -1e-9 <= value <= total + 1e-9, name
    assert metrics["trace.coverage_frac"] >= 0.95, metrics["trace.coverage_frac"]
    assert metrics["trace.coverage_frac"] <= 1.0


def test_every_patch_is_restored(measured):
    assert measured["restored"]


def test_patches_are_restored_when_the_pass_raises():
    before = _patched_now()

    def boom():
        raise RuntimeError("op failed")

    instance = workloads.Instance("boom", [("boom", boom, 3)])
    with pytest.raises(KeyError):
        with ledger.Ledger() as led:
            result = run_pass(instance, REF, on_probe=led.calibrate)
            assert (result.attempted, result.failed) == (3, 3)
            raise KeyError("leave the ledger by an exception")
    assert all(a is b for a, b in zip(before, _patched_now()))


def test_default_seed_digest_is_pinned():
    for name, w in SPEC["workloads"].items():
        assert re.fullmatch(r"[0-9a-f]{64}", w["digest"]), name


@pytest.mark.parametrize(
    "a, b, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.3, 10.1, 10.2], "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "worse"),
        ([10.0, 10.1, 9.9, 10.0], [7.0, 7.1, 6.9, 7.0], "better"),
        ([8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0, 15.0], "unresolved"),
        ([10.0, 12.0, 14.0, 16.0], [5.0, 6.0, 7.0, 8.0], "better"),
    ],
)
def test_compare_verdicts(a, b, verdict):
    assert run.judge(a, b, 0.1, "lower")[1] == verdict
    # too few clean (not NOISY) runs on one side: nothing can be said
    assert run.judge(a[:2], b, 0.1, "lower")[1] == "unresolved"
