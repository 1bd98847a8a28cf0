"""Arithmetic that turns raw samples and traces into reported metrics."""
from __future__ import annotations

import statistics

FORMULA_IDS = (
    "SERIES_ORACLE",
    "HIGGINS_9",
    "STIRLING_SINGLE_10",
    "GOULD_DOUBLE_11",
    "STIRLING_RATIO_12",
    "FAULHABER_RECURSION_13",
    "TANGENT_DOUBLE_14_AS_PRINTED",
    "DOUBLE_STIRLING_15",
    "GENOCCHI_THEOREM_16",
)

TAIL_BEYOND = 10


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    With N samples that is the (TAIL_BEYOND+1)-th largest, at percentile
    100 * (N - TAIL_BEYOND) / N.  None when there are too few samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return {
        "value": sorted(samples)[n - TAIL_BEYOND - 1],
        "percentile": 100 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def flatten(trace: dict) -> dict[str, float]:
    """One traced process's report as a flat {key: number} map."""
    flat: dict[str, float] = dict(trace["counters"])
    for name, totals in trace["spans"].items():
        for field, value in totals.items():
            flat[f"{name}.{field}"] = value
    for name, memo in trace["memos"].items():
        for field, value in memo.items():
            flat[f"memo.{name}.{field}"] = value
    return flat


def mean_trace(traces: list[dict]) -> dict[str, float]:
    """Per-process mean of every flattened key; a key a process lacks counts 0."""
    flats = [flatten(t) for t in traces]
    keys = set().union(*flats)
    return {k: statistics.fmean(f.get(k, 0) for f in flats) for k in keys}


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a mean trace.  Times are span self times in
    seconds, except cache.lookup_s and trace.root_s, which are inclusive."""

    def self_s(span: str) -> float:
        return t.get(f"{span}.self_ns", 0) / 1e9

    def count(key: str) -> float:
        return t.get(key, 0)

    metrics = {
        "cli.self_s": self_s("cli"),
        "harness.self_s": self_s("harness"),
        "harness.evaluations": count("harness.evaluations"),
        "harness.eval_errors": count("harness.eval_errors"),
        "harness.report_s": self_s("harness.report"),
    }
    for fid in FORMULA_IDS:
        metrics[f"formulas.{fid}.self_s"] = self_s(f"formulas.{fid}")
        metrics[f"formulas.{fid}.calls"] = count(f"formulas.{fid}.calls")
    metrics.update({
        "polynomial.interpolate_s": self_s("polynomial.interpolate"),
        "polynomial.interpolate_calls": count("polynomial.interpolate.calls"),
        "polynomial.eval_s": self_s("polynomial.eval"),
        "cache.lookup_s": t.get("cache.lookup.inclusive_ns", 0) / 1e9,
        "cache.lookups": count("cache.lookups"),
        "cache.hit_ratio": ratio(count("cache.hits"), count("cache.lookups")),
        "cache.useful_row_ratio": ratio(count("cache.rows_needed"), count("cache.rows_loaded")),
        "stirling.load_s": self_s("stirling.load"),
        "stirling.build_s": self_s("stirling.build"),
        "stirling.save_s": self_s("stirling.save"),
        "stirling.file_bytes": count("stirling.file_bytes"),
        "stirling.rows_built": count("stirling.rows_built"),
        "stirling.explicit_s": self_s("stirling.explicit"),
        "stirling.series_route_s": self_s("stirling.series_route"),
        "series.mul_s": self_s("series.mul"),
        "series.mul_calls": count("series.mul.calls"),
        "derivatives.iterate_s": self_s("derivatives.iterate"),
        "derivatives.reference_s": self_s("derivatives.reference"),
        "derivatives.genocchi_s": self_s("derivatives.genocchi"),
        "exact.binomial_hit_ratio": ratio(
            count("memo.binomial.hits"),
            count("memo.binomial.hits") + count("memo.binomial.misses"),
        ),
        "exact.binomial_entries": count("memo.binomial.entries"),
        "exact.factorial_entries": count("memo.factorial.entries"),
        "trace.root_s": t.get("root.inclusive_ns", 0) / 1e9,
    })
    return metrics
