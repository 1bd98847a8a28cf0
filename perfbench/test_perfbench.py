"""Tests for the benchmark's own arithmetic (the reference, span self time,
the tail-percentile rule, the cache ratios) and for the runner's output contract."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reference import bernoulli_numbers, genocchi, rational_text
from spans import SpanTimer
from summary import layer_metrics, mean_trace, tail

HERE = Path(__file__).resolve().parent


def test_reference_bernoulli_fixed_values():
    expected = [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
        Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730),
    ]
    assert bernoulli_numbers(12) == expected


def test_reference_genocchi_18():
    assert genocchi(18, bernoulli_numbers(18)[18]) == -28820619


def test_reference_prefixes_agree():
    assert bernoulli_numbers(40)[:21] == bernoulli_numbers(20)


def test_rational_text():
    assert rational_text(Fraction(-691, 2730)) == "-691/2730"
    assert rational_text(Fraction(4, 2)) == "2"


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    timer = SpanTimer(clock)
    timer.enter("formula")
    clock.now += 5
    for _ in range(2):
        timer.enter("interpolate")
        clock.now += 30
        timer.exit()
    clock.now += 7
    timer.exit()
    assert timer.totals["formula"] == {"calls": 1, "inclusive_ns": 72, "self_ns": 12}
    assert timer.totals["interpolate"] == {"calls": 2, "inclusive_ns": 60, "self_ns": 60}


def test_same_name_nesting_counts_inclusive_time_once():
    clock = FakeClock()
    timer = SpanTimer(clock)
    timer.enter("harness")
    clock.now += 1
    timer.enter("harness")
    clock.now += 10
    timer.exit()
    clock.now += 2
    timer.exit()
    assert timer.totals["harness"] == {"calls": 2, "inclusive_ns": 13, "self_ns": 13}


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    eleven = tail([float(x) for x in range(11)])
    assert eleven["value"] == 0.0
    assert eleven["samples"] == 11
    assert eleven["percentile"] == pytest.approx(100 / 11)


def test_tail_of_one_hundred_samples_is_the_90th_percentile():
    samples = [float(x) for x in range(100, 0, -1)]
    assert tail(samples) == {"value": 90.0, "percentile": 90.0, "samples": 100}


def _trace(counters, spans=None):
    return {"spans": spans or {}, "counters": counters, "memos": {}}


def test_useful_row_ratio_is_rows_needed_over_rows_loaded():
    traces = [
        _trace({"cache.lookups": 1, "cache.hits": 1, "cache.rows_needed": 1, "cache.rows_loaded": 301}),
        _trace({"cache.lookups": 1, "cache.hits": 1, "cache.rows_needed": 129, "cache.rows_loaded": 301}),
    ]
    metrics = layer_metrics(mean_trace(traces))
    assert metrics["cache.useful_row_ratio"] == pytest.approx(130 / 602)
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["cache.lookups"] == 1.0


def test_ratios_are_zero_without_lookups():
    metrics = layer_metrics(mean_trace([_trace({"cache.lookups": 1})]))
    assert metrics["cache.hit_ratio"] == 0.0
    assert metrics["cache.useful_row_ratio"] == 0.0


def test_layer_metrics_report_self_seconds():
    spans = {
        "formulas.FAULHABER_RECURSION_13": {"calls": 3, "inclusive_ns": 4_000_000_000, "self_ns": 1_000_000_000},
        "polynomial.interpolate": {"calls": 3, "inclusive_ns": 3_000_000_000, "self_ns": 3_000_000_000},
    }
    metrics = layer_metrics(mean_trace([_trace({}, spans)]))
    assert metrics["formulas.FAULHABER_RECURSION_13.self_s"] == 1.0
    assert metrics["formulas.FAULHABER_RECURSION_13.calls"] == 3
    assert metrics["polynomial.interpolate_s"] == 3.0
    assert metrics["polynomial.interpolate_calls"] == 3


def test_traced_run_reaches_callers_that_imported_by_name(tmp_path):
    src = HERE.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), BERNOCCHI_CACHE_DIR=str(tmp_path / "cache"))
    trace_path = tmp_path / "trace.json"
    out = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), str(trace_path), "--", "verify", "--max-n", "6"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    spans = json.loads(trace_path.read_text())["spans"]
    assert spans["formulas.FAULHABER_RECURSION_13"]["calls"] == 3  # n = 2, 4, 6
    assert spans["polynomial.interpolate"]["calls"] == 3
    faulhaber = spans["formulas.FAULHABER_RECURSION_13"]
    assert faulhaber["self_ns"] < faulhaber["inclusive_ns"]
    assert spans["cli"]["calls"] == 1


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    out = _run_bench(
        HERE.parent, "--workload", "compute-cached", "--seed", "3", "--seconds", "1", "--trace", trace
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run_bench(tmp_path, "--workload", "verify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
