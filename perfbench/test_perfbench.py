"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest

import bootstrap  # noqa: F401  (must precede the kcdag imports)
import kcdag as K

import run
from harness import FAILED, Ops, ref_eval, walk_eval
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, PassStats, chain_case, chain_ops, CHAIN_CASES

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    setup = WORKLOADS[name].setup
    a, b = setup(7), setup(7)
    if "store" in a:
        assert K.serialize(a["store"], a["root"], 1) == K.serialize(b["store"], b["root"], 1)
    else:
        assert a == b
        assert setup(7) != setup(8)


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_metric_names_and_units_match_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_ops_guard_counts_failures_and_skips():
    ops = Ops()

    def boom():
        raise RecursionError

    first = ops.run("t", boom)
    ops.run("t", lambda: 1, deps=(first,))
    assert ops.run("t", lambda: 2) == 2
    assert first is FAILED
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.failures == {"RecursionError": 1, "Skipped": 1}
    assert len(ops.latency["t"]) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_case_attempts_its_op_count(name):
    wl = WORKLOADS[name]
    ops = Ops()
    wl.case(wl.setup(3), 0, ops, PassStats())
    assert ops.attempted == wl.case_ops
    assert (ops.failed, ops.wrong) == (0, [])


def test_reference_and_walk_agree_with_engine():
    cnf = K.parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n")
    store, root = K.compile_cnf(cnf, 1)
    for m in range(8):
        a = {v: bool((m >> (v - 1)) & 1) for v in (1, 2, 3)}
        truth = ref_eval(("base",), a, cnf)
        assert store.evaluate(root, a) == truth == walk_eval(store, root, a)
        assert ref_eval(("not", ("base",)), a, cnf) is not truth


def test_tracer_self_times_add_up_and_counts_recursion():
    cnf = K.parse_dimacs("p cnf 6 4\n1 2 0\n-2 3 0\n3 4 -5 0\n5 6 0\n")
    original = K.compile_cnf
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        store, root = K.compile_cnf(cnf, 1)
        K.model_count(store, root)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = tracer.summary(wall)
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + summary["bench.self_s"] == pytest.approx(wall)
    assert summary["bench.self_s"] >= 0
    assert summary["engine.conjoin.calls"] >= summary["engine.conjoin.top_calls"] >= 1
    assert summary["ordering.min_fill_order.top_calls"] == 1
    assert K.compile_cnf is original


def test_untimed_ops_stay_out_of_the_spans():
    cnf = K.parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n")
    store, root = K.compile_cnf(cnf, 1)
    tracer = Tracer()
    ops = Ops()
    ops.quiet = tracer.quiet
    tracer.install()
    try:
        ops.run(None, K.model_count, store, root)
        ops.run(None, lambda: list(K.enumerate_models(store, root)), name="enumerate_models")
        ops.run("read", K.model_count, store, root)
    finally:
        tracer.uninstall()
    summary = tracer.summary(1.0)
    assert summary["ops.model_count.calls"] == summary["ops.model_count.top_calls"] == 1
    assert summary["ops.enumerate_models.calls"] == 0


def test_chain_case_op_count_matches():
    wl = WORKLOADS["convert-validate"]
    for k, (_, bound) in enumerate(CHAIN_CASES[:3]):
        ops = Ops()
        chain_case(None, k, ops, PassStats())
        assert ops.attempted == len(chain_ops(bound)) == wl.tail_ops(k)
        assert not ops.wrong


def test_every_pass_runs_the_tail_cases(monkeypatch):
    """The failed share of a run must not depend on how many passes fit."""
    wl = WORKLOADS["convert-validate"]
    calls = []

    def fake_case(name, seed, k, ops, stats, tail=False):
        calls.append(tail)
        if tail:
            ops.record("chain", "RecursionError")
            return None
        ops.latency["convert"].append(0.001)
        ops.record("convert", None)
        return 1.0

    monkeypatch.setattr(run, "run_case", fake_case)
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: (0.1, [], []))
    ops, metrics, detail = run.measure("convert-validate", 1, 0.01)
    assert calls == ([False] * wl.cases + [True] * wl.tail_cases) * detail["passes"]
    assert metrics["ok_ratio"] == 1 - wl.tail_cases / (wl.cases + wl.tail_cases)
