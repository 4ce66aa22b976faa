"""Tests of the benchmark itself: the traced counts reproduce the exact
facts of the Baseline in ROADMAP.md, and the output gate and the
tracer behave as run.py relies on.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import gc
import json
import random
import sys
import time
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nclfun.coeffring import CoeffRing  # noqa: E402
from nclfun.lfun import euler_product  # noqa: E402
from nclfun.limits import fitting_ideal, limit_module  # noqa: E402

SEED = 1


def traced(fn):
    spans = tracer.Tracer()
    spans.install()
    try:
        fn()
    finally:
        spans.uninstall()
    return {k: v for k, (v, _) in spans.metrics().items()}


@pytest.fixture(scope="module")
def fixtures():
    return workloads.load_fixtures()


def traced_pass(workload, fixtures):
    """One traced pass over a workload's pool; every check must pass."""
    pool = workloads.build_pool(workload, SEED, fixtures)
    golden = run._golden()

    def go():
        for name, fn in pool.checks:
            verdict, detail = run.gate(name, *fn(), 0.0, golden)
            assert verdict == "pass", (name, detail)

    return traced(go)


def layer_seconds(metrics):
    """Inclusive seconds of every per-layer function metric."""
    names = run.per_layer_names()
    return {k: metrics[k] for k in names
            if k.endswith(".s") and not k.startswith("trace.")}


# ---------------------------------------------------------------------------
# Baseline cross-check
# ---------------------------------------------------------------------------

def test_ec_f5_has_3362_local_factors_and_6_distinct(fixtures):
    ec = fixtures["ec_f5"]
    m = traced(lambda: euler_product(ec.covering, ec.sheaf.rep, 7))
    assert m["lfun.euler_product.calls"] == 1
    assert m["lfun.local_factors"] == 3362
    assert m["lfun.local_factors_distinct"] == 6


@pytest.mark.parametrize("ell,m,minpoly,size", [
    (3, 3, None, 4), (5, 1, None, 3), (3, 1, (1, 0, 1), 3),
    (5, 1, (4, 0, 1), 2)])
def test_fitting_takes_every_maximal_minor(ell, m, minpoly, size):
    ring = CoeffRing(ell, m, minpoly)
    rng = random.Random(f"{ell}:{m}:{minpoly}:{size}")
    Phi = workloads.structured_phi(rng, ring, size)
    module = limit_module(ring, Phi)
    counts = traced(lambda: fitting_ideal(module))
    want = comb(len(module.relations) + size, size)
    assert counts["limits.fitting_ideal.calls"] == 1
    assert counts["limits.fitting_ideal.minors"] == want
    assert counts["coeffring.poly_det.calls"] == want


def test_lfun_ncl_forms_no_ideal(fixtures):
    m = traced_pass("lfun-ncl", fixtures)
    assert m["limits.ideal_canonical_form.calls"] == 0
    assert m["limits.fitting_ideal.calls"] == 0
    assert m["lfun.local_factors"] > m["lfun.local_factors_distinct"] > 0


def test_kconnect_takes_no_fitting_ideal(fixtures):
    m = traced_pass("kconnect-battery", fixtures)
    assert m["limits.fitting_ideal.calls"] == 0
    seconds = layer_seconds(m)
    assert max(seconds, key=seconds.get) == "limits.ideal_canonical_form.s"


def test_imc_ideal_form_is_the_largest_layer(fixtures):
    m = traced_pass("imc-growing", fixtures)
    assert m["limits.fitting_ideal.calls"] > 0
    seconds = layer_seconds(m)
    assert max(seconds, key=seconds.get) == "limits.ideal_canonical_form.s"


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, fixtures):
    a = workloads.build_pool(workload, 7, fixtures)
    b = workloads.build_pool(workload, 7, fixtures)
    c = workloads.build_pool(workload, 8, fixtures)
    assert a.input_digest == b.input_digest != c.input_digest
    assert [x.name for x in a.checks] == [x.name for x in b.checks]


def test_gate_fails_wrong_and_raising_checks():
    golden = {"g": "0" * 64}
    assert run.gate("g", "ok", "anything", 0.0, golden)[0] == "fail"
    assert run.gate("p", "pass", "", run.CHECK_BUDGET_S + 1, {})[0] == "fail"

    def boom():
        raise ZeroDivisionError("x")

    results, _ = run.run_checks([("boom", boom)], 0, SEED, {})
    assert [(r[0], r[2]) for r in results] == [("boom", "raised")]


def test_rate_counts_each_check_once_at_its_mean():
    results = [("a", 2.0, "pass", "", 1.0), ("a", 6.0, "pass", "", 3.0),
               ("b", 2.0, "pass", "", 1.0)]
    assert run.check_rate(results) == pytest.approx(2 / 3)
    assert run.check_rate(results, nominal=False) == pytest.approx(1 / 3)


def test_reference_loop_triggers_no_collection():
    buf = list(range(1, 65))
    run.reference_loop(buf)
    starts = []

    def seen(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(seen)
    gc.set_threshold(1)  # any tracked allocation would start a collection
    try:
        for _ in range(200):
            run.reference_loop(buf)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(seen)
    assert starts == []


def test_slowdown_is_taken_near_the_check():
    ref = run.Reference()
    ref.sample(0.005)
    assert ref.loops >= 1 and ref.seconds >= 0.005
    whole, near = ref.slowdown(), ref.slowdown(0.0, time.perf_counter())
    assert whole == near > 0


def test_goldens_cover_every_ok_check(fixtures):
    pool = workloads.build_pool("lfun-ncl", SEED, fixtures)
    golden = json.loads((HERE / "golden.json").read_text())
    ok_names = {name for name, fn in pool.checks
                if name.startswith(("lfun.euler", "ncl.compute"))}
    assert ok_names == set(golden)


def test_missing_names_are_absent_not_fatal():
    spans = tracer.Tracer(names=tracer.NAME_TABLE
                          + (("linalg", "no_such_helper"),))
    spans.install()
    spans.uninstall()
    assert spans.absent == ["linalg.no_such_helper"]
    assert not any(k.startswith("linalg.no_such_helper")
                   for k in spans.metrics())


def test_every_per_layer_metric_is_produced():
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    produced = set(spans.metrics()) | {
        "trace.checks_per_s_untraced", "trace.checks_per_s_traced",
        "trace.overhead_ratio"}
    assert set(run.per_layer_names()) <= produced
