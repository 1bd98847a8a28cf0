"""Run one bernocchi CLI command, or one cross-check pass, with a span around
each public function of each layer, then write span and counter totals as
JSON to TRACE.

    PYTHONPATH=src python perfbench/traced.py TRACE -- verify --max-n 100
    PYTHONPATH=src python perfbench/traced.py TRACE --crosscheck

Each function is replaced in every bernocchi module that holds it, so a
caller that imported it by name calls the wrapper.  A target that a later
version of the package no longer has is skipped and its metrics read zero.
The memo sizes of the exact layer come from the public cache_info(), so its
hot calls stay unwrapped.
"""
from __future__ import annotations

import collections
import functools
import json
import os
import sys

import bernocchi
import bernocchi.cli
import bernocchi.exact

import crosscheck
from spans import SpanTimer

FORMULA_FUNCTIONS = {
    "bernoulli_series_oracle": "SERIES_ORACLE",
    "bernoulli_higgins": "HIGGINS_9",
    "bernoulli_stirling_single": "STIRLING_SINGLE_10",
    "bernoulli_gould_double": "GOULD_DOUBLE_11",
    "bernoulli_stirling_ratio": "STIRLING_RATIO_12",
    "bernoulli_faulhaber_recursion": "FAULHABER_RECURSION_13",
    "bernoulli_tangent_double_as_printed": "TANGENT_DOUBLE_14_AS_PRINTED",
    "bernoulli_double_stirling": "DOUBLE_STIRLING_15",
    "genocchi_theorem": "GENOCCHI_THEOREM_16",
}


class Probes:
    def __init__(self) -> None:
        self.timer = SpanTimer()
        self.counters: collections.Counter = collections.Counter()
        self._shared_rows = 1  # the shared triangle starts with row 0

    # Counter hooks: called after the wrapped function returns, with its
    # result and its arguments.

    def _after_evaluate_all(self, result, *args, **kwargs) -> None:
        self.counters["harness.evaluations"] += len(result)
        self.counters["harness.eval_errors"] += sum(e.error is not None for e in result)

    def _after_triangle_build(self, result, *args, **kwargs) -> None:
        self.counters["stirling.rows_built"] += result.max_n + 1

    def _after_shared_triangle(self, result, max_n) -> None:
        grown = max(0, max_n + 1 - self._shared_rows)
        self.counters["stirling.rows_built"] += grown
        self._shared_rows += grown

    def _after_triangle_save(self, result, triangle, path) -> None:
        self.counters["stirling.file_bytes"] += os.path.getsize(path)

    def _after_lookup(self, result, min_rows) -> None:
        self.counters["cache.lookups"] += 1
        if result is not None:
            self.counters["cache.hits"] += 1
            self.counters["cache.rows_needed"] += min_rows + 1
            self.counters["cache.rows_loaded"] += result.max_n + 1

    def targets(self):
        """(module, attribute, span name, counter hook) for every probe."""
        yield "bernocchi.cli", "main", "cli", None
        yield "bernocchi.harness", "verify_range", "harness", None
        yield "bernocchi.harness", "evaluate_all", "harness", self._after_evaluate_all
        yield "bernocchi.harness", "report_to_json", "harness.report", None
        yield "bernocchi.harness", "report_to_dict", "harness.report", None
        for name, formula in FORMULA_FUNCTIONS.items():
            yield "bernocchi.formulas", name, f"formulas.{formula}", None
        yield "bernocchi.polynomial", "interpolate", "polynomial.interpolate", None
        yield "bernocchi.polynomial", "RationalPolynomial.__call__", "polynomial.eval", None
        yield "bernocchi.cache", "load_cached_triangle", "cache.lookup", self._after_lookup
        yield "bernocchi.stirling", "triangle_build", "stirling.build", self._after_triangle_build
        yield "bernocchi.stirling", "shared_triangle", "stirling.build", self._after_shared_triangle
        yield "bernocchi.stirling", "triangle_save", "stirling.save", self._after_triangle_save
        yield "bernocchi.stirling", "triangle_load", "stirling.load", None
        yield "bernocchi.stirling", "stirling_explicit", "stirling.explicit", None
        yield "bernocchi.stirling", "stirling_via_series", "stirling.series_route", None
        yield "bernocchi.series", "TruncatedSeries.__mul__", "series.mul", None
        yield "bernocchi.derivatives", "DerivativeRule.iterate", "derivatives.iterate", None
        yield "bernocchi.derivatives", "derivative_polynomial_reference", "derivatives.reference", None
        yield "bernocchi.derivatives", "genocchi_from_derivatives", "derivatives.genocchi", None

    def wrap(self, fn, span, hook):
        timer = self.timer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                timer.exit()
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "bernocchi"]
        for module_name, attribute, span, hook in self.targets():
            owner_name, _, name = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, name, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span, hook)
            # A class is patched under every alias (TruncatedSeries.__rmul__ is
            # __mul__); a function in every module namespace that imported it.
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def report(self) -> dict:
        memos = {}
        for name in ("binomial", "factorial"):
            info = getattr(getattr(bernocchi.exact, name, None), "cache_info", None)
            if info is not None:
                hits, misses, _, size = info()
                memos[name] = {"hits": hits, "misses": misses, "entries": size}
        return {"spans": self.timer.totals, "counters": dict(self.counters), "memos": memos}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] not in ("--", "--crosscheck"):
        print("usage: traced.py TRACE (-- CLI-ARGS... | --crosscheck)", file=sys.stderr)
        return 1
    probes = Probes()
    probes.install()
    probes.timer.enter("root")
    try:
        if argv[2] == "--crosscheck":
            code = crosscheck.main()
        else:
            code = bernocchi.cli.main(argv[3:])
    finally:
        probes.timer.exit()
        with open(argv[1], "w", encoding="utf-8") as out:
            json.dump(probes.report(), out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
