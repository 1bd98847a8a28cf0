"""Differential verification and benchmarking across all formula routes.

Every implemented formula is evaluated on a shared index range and compared
against the consensus value, which is anchored to SERIES_ORACLE rather than
a majority vote: a genuinely independent oracle exists, and voting could
mask correlated bugs in the Stirling-backed routes.  Even-index-only
formulas are simply skipped at odd indices, and the Genocchi formula is
compared on the Bernoulli scale through G_n = 2(1-2^n) B_n.
"""
from __future__ import annotations

import enum
import time
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .exact import _json_text, format_rational
from .formulas import FormulaId, bernoulli_sweep, formula_bernoulli_value, is_applicable

__all__ = [
    "FormulaEvaluation",
    "IndexRecord",
    "VerificationReport",
    "Verdict",
    "BenchRecord",
    "evaluate_all",
    "verify_range",
    "bench",
    "report_to_dict",
    "report_to_json",
]


class Verdict(enum.Enum):
    ALL_TRUSTED_AGREE = "ALL_TRUSTED_AGREE"
    TRUSTED_DISSENT_FOUND = "TRUSTED_DISSENT_FOUND"


class FormulaEvaluation(NamedTuple):
    """One formula evaluated at one index; value is present iff error is None."""

    formula: FormulaId
    n: int
    value: Fraction | None
    elapsed_ns: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class IndexRecord(NamedTuple):
    """Consensus/dissent at a single index.  Dissent entries carry the
    dissenting value (or error text) in serialized form."""

    n: int
    consensus: Fraction
    agreeing: tuple[FormulaId, ...]
    dissenting: tuple[tuple[FormulaId, str], ...]


class VerificationReport(NamedTuple):
    max_n: int
    records: tuple[IndexRecord, ...]
    agreements: int
    dissents: int
    verdict: Verdict


class BenchRecord(NamedTuple):
    formula: FormulaId
    n: int
    repetitions: int
    median_ns: int
    value: str


def _value_or_error(fid: FormulaId, n: int) -> tuple[Fraction | None, str | None]:
    try:
        return formula_bernoulli_value(fid, n), None
    except Exception as exc:  # captured per record, never aborts the sweep
        return None, f"{type(exc).__name__}: {exc}"


def _evaluate(fid: FormulaId, n: int) -> FormulaEvaluation:
    start = time.perf_counter_ns()
    value, error = _value_or_error(fid, n)
    return FormulaEvaluation(fid, n, value, time.perf_counter_ns() - start, error)


def evaluate_all(n: int) -> list[FormulaEvaluation]:
    """Evaluate every applicable formula at index n, on the Bernoulli scale."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [_evaluate(fid, n) for fid in FormulaId if is_applicable(fid, n)]


def _read_row(fid: FormulaId, max_n: int) -> Iterator[tuple[int, Fraction | None, str | None]]:
    """(n, value, error) for each applicable n <= max_n of the row, as evaluate_all
    gives them.  The row is read through its sweep while the sweep yields the
    next applicable n; from the first index where it raises or yields another
    n, the row is evaluated per index, each error on its own index."""
    sweep = bernoulli_sweep(fid, max_n)
    for n in range(max_n + 1):
        if not is_applicable(fid, n):
            continue
        if sweep is not None:
            try:
                swept, value = next(sweep)
            except Exception:  # the per-index call below records the error
                swept = None
            if swept == n:
                yield n, value, None
                continue
            sweep = None
        yield (n, *_value_or_error(fid, n))


def verify_range(max_n: int) -> VerificationReport:
    """Differential report over indices 0..max_n.

    The registry is read one row at a time, in FormulaId order, the oracle
    first: an index where it fails raises before any other row runs.  Each
    value is compared with the oracle's as it arrives.  The report content
    is deterministic and carries no timing fields.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    consensus = []
    for n, value, error in _read_row(FormulaId.SERIES_ORACLE, max_n):
        if error is not None:
            raise RuntimeError(f"series oracle failed at n={n}: {error}")
        consensus.append(value)
    # SERIES_ORACLE is the first FormulaId, and agrees with itself.
    agreeing = [[FormulaId.SERIES_ORACLE] for _ in consensus]
    dissenting: list[list[tuple[FormulaId, str]]] = [[] for _ in consensus]
    for fid in list(FormulaId)[1:]:
        for n, value, error in _read_row(fid, max_n):
            if error is not None:
                dissenting[n].append((fid, f"ERROR: {error}"))
            elif value == consensus[n]:
                agreeing[n].append(fid)
            else:
                dissenting[n].append((fid, format_rational(value)))
    records = tuple(map(IndexRecord, range(max_n + 1), consensus, map(tuple, agreeing), map(tuple, dissenting)))
    agreements = sum(len(r.agreeing) for r in records)
    dissents = sum(len(r.dissenting) for r in records)
    trusted_dissent = any(fid.trusted for r in records for fid, _ in r.dissenting)
    verdict = Verdict.TRUSTED_DISSENT_FOUND if trusted_dissent else Verdict.ALL_TRUSTED_AGREE
    return VerificationReport(max_n, records, agreements, dissents, verdict)


def bench(
    formulas: Iterable[FormulaId], n_values: Iterable[int], repetitions: int
) -> list[BenchRecord]:
    """Lower-median wall-clock timings over the (formula, n) cross product.

    One warm-up evaluation per pair is excluded from the timings; the
    evaluated value must be byte-identical across repetitions.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    n_values = list(n_values)
    records = []
    for fid in formulas:
        for n in n_values:
            formula_bernoulli_value(fid, n)  # warm-up, excluded; rejects an inapplicable n
            times = []
            digests = set()
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                value = formula_bernoulli_value(fid, n)
                times.append(time.perf_counter_ns() - start)
                digests.add(format_rational(value))
            if len(digests) != 1:
                raise RuntimeError(f"{fid.value} at n={n} gave varying values: {digests}")
            median_low = sorted(times)[(repetitions - 1) // 2]
            records.append(BenchRecord(fid, n, repetitions, median_low, digests.pop()))
    return records


def report_to_dict(report: VerificationReport) -> dict:
    """Plain-data view of a report; rationals use the p/q serialization."""
    return {
        "max_n": report.max_n,
        "verdict": report.verdict.value,
        "summary": {"agreements": report.agreements, "dissents": report.dissents},
        "records": [
            {
                "n": r.n,
                "consensus": format_rational(r.consensus),
                "agreeing": [fid.value for fid in r.agreeing],
                "dissenting": [
                    {"formula": fid.value, "value": value} for fid, value in r.dissenting
                ],
            }
            for r in report.records
        ],
    }


def report_to_json(report: VerificationReport) -> str:
    """json.dumps(report_to_dict(report), indent=2), byte for byte, written
    without the json module by the writer of every JSON output."""
    return "".join(_json_text(report_to_dict(report)))
