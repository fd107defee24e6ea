"""Tests of the benchmark itself.  Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import solve_pool  # noqa: E402
import workloads  # noqa: E402
from genconn import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("verify-refute", 0), ("verify-refute", 1), ("solve", 0),
])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_layer_metric_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)


def test_corrupted_reference_raises_failed_frac(tmp_path):
    refs = solve_pool.load_refs()
    seed = 5
    wl = workloads.SolveWorkload()
    clean = wl.run_pass(solve_pool.write_ops(seed, refs, tmp_path / "clean"), layers.Tracer(),
                        lambda: None)
    assert clean.failed == 0 and not clean.errors

    key = solve_pool.draw(seed, refs)[0][0]
    refs["random"][key]["lambda_set"] += 1
    ops = solve_pool.write_ops(seed, refs, tmp_path / "corrupt")
    res = wl.run_pass(ops, layers.Tracer(), lambda: None)
    # the maximum and the decision at the corrupted value now disagree
    assert res.failed == 2 and res.attempted == clean.attempted
    assert len(res.errors) == 2


def test_seed_changes_solve_draw_deterministically():
    refs = solve_pool.load_refs()

    def shape(seed):
        return [(stem, s) for stem, _g, s, _a in solve_pool.draw(seed, refs)]

    assert shape(1) == shape(1)
    assert shape(1) != shape(2)


def test_verify_passes_match_expected_counts_and_never_fail():
    # run_pass records an error when a report's instance count differs
    # from the closed form, and for every failure a report lists
    for workload in ("verify-refute", "verify-mixed"):
        wl = workloads.make(workload)
        res = wl.run_pass(wl.setup(1, ROOT), layers.Tracer(), lambda: None)
        assert res.errors == [] and res.failed == 0 and res.attempted >= 1


def test_missing_wrapped_name_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(layers, "WRAPPED", layers.WRAPPED + (
        ("solver", "no_such_function", "solver.no_such_function"),
    ))
    tracer = layers.Tracer()
    tracer.begin_pass()
    try:
        verify.verify_reduction("R4", verify.VerifyBudget(max_n=3, ks=(4,), ls=(2,)))
    finally:
        spans = tracer.end_pass()
    assert tracer.missing == ["solver.no_such_function"]
    values = layers.layer_metrics([layers.layer_totals(spans)],
                                  layers.call_durations(spans), 0.0, tracer.missing, 0.0, 20.0)
    assert values["trace.missing"] == 1
    assert values["solver.decide_lambda_set.no_calls"] + \
        values["solver.decide_lambda_set.yes_calls"] > 0


def test_self_time_subtracts_children():
    spans = [
        ("cli.main", -1, 0.0, 10.0, None),
        ("io.parse_graph_and_set", 0, 1.0, 2.0, None),
        ("solver.decide_lambda_set", 0, 2.0, 7.0, False),
        ("solver.lambda_set", 2, 3.0, 4.0, None),
    ]
    totals = layers.layer_totals(spans)
    assert totals["cli.main.self_s"] == 4.0
    assert totals["solver.decide_lambda_set.no_s"] == 5.0
    assert totals["io.parse.s"] == 1.0
