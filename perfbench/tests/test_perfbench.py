"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests -q``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import entorder as eo  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    record, result = run.run(workload, 7, 0.0, trace, ROOT / "src", 0.0, sizes=workloads.TINY)
    assert result["correct"] is True, record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert set(record["environment"]) >= {"python", "numpy", "nproc", "cpu", "commit", "seed", "threads"}
    if trace and workload == "stored":
        assert result["metrics"]["families.eval_p.calls"]["value"] == 0
    if trace and workload == "estimate-r":
        shares = {layer: result["metrics"][f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
        assert max(shares, key=shares.get) == "families"


def test_tracer_restores_every_function():
    before = tracing.snapshot()
    original = eo.families.pair_ratio
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # patched in the defining module and in every module that imported it
        assert eo.families.pair_ratio is not original
        assert eo.oscillation.pair_ratio is eo.families.pair_ratio
        assert eo.convertibility.pair_ratio is eo.families.pair_ratio
        tracer.recording = True
        eo.slocc_decide(eo.tmss(0.6, 300), eo.tmss(0.4, 300), window=(0, 250))
        tracer.recording = False
        names = {s[tracing.NAME] for s in tracer.take()}
        assert {"convertibility.slocc_decide", "families.pair_ratio", "spectrum.tail_function"} <= names
    finally:
        tracer.uninstall()
    assert tracing.snapshot() == before
    assert eo.families.pair_ratio is original


@pytest.mark.parametrize("workload", ["estimate-r", "stored"])
def test_only_untraced_ops_carry_the_machine_slowness(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](5, workloads.TINY)
    wl.setup(tmp_path)
    assert all(op.slowness > 0 for op in wl.run_pass())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert all(op.slowness is None for op in traced)


def test_self_time_excludes_children():
    spans = [(2, 1, "b", 1.0, 3.0, 0, False), (3, 1, "c", 4.0, 5.0, 0, False),
             (1, 0, "a", 0.0, 10.0, 0, False)]
    assert tracing.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_oracle_agrees_with_max_probability():
    rng = np.random.default_rng(20260101)
    for _ in range(300):
        ra, rb = (int(r) for r in rng.integers(1, 60, size=2))
        wa, wb = workloads.random_weights(rng, ra), workloads.random_weights(rng, rb)
        p = eo.max_probability(eo.build_spectrum(wa), eo.build_spectrum(wb))
        assert abs(p - workloads.oracle_probability(wa, wb)) <= 1e-12


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.judge(parent, faster[:9] + [11.0], "lower", 0.1)[0] == "gain"  # 9 of 10
    assert compare.judge(parent, faster[:8] + [11.0, 11.0], "lower", 0.1)[0] != "gain"  # 8 of 10
    assert compare.judge(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regression"
    assert compare.judge(parent, list(parent), "lower", 0.1)[0] == "within-bound"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.judge(wide, [v * 1.05 for v in wide], "lower", 0.1)[0] == "unresolved"
    assert compare.judge(parent, faster, "lower", 0.1, parent_failed=0, change_failed=1)[0] == "more-failures"
