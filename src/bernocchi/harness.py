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
from typing import Iterable, NamedTuple, Sequence

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


def _evaluate(fid: FormulaId, n: int) -> FormulaEvaluation:
    start = time.perf_counter_ns()
    try:
        value = formula_bernoulli_value(fid, n)
        error = None
    except Exception as exc:  # captured per record, never aborts the sweep
        value = None
        error = f"{type(exc).__name__}: {exc}"
    return FormulaEvaluation(fid, n, value, time.perf_counter_ns() - start, error)


def evaluate_all(n: int) -> list[FormulaEvaluation]:
    """Evaluate every applicable formula at index n, on the Bernoulli scale."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [_evaluate(fid, n) for fid in FormulaId if is_applicable(fid, n)]


def _evaluate_swept(n: int, sweeps: dict) -> list[FormulaEvaluation]:
    """evaluate_all(n), with the value of each row in sweeps read from its
    sweep.  A sweep that raises is dropped from sweeps, so that index and
    every later one are evaluated per index, each error on its own record."""
    evaluations = []
    for fid in FormulaId:
        if not is_applicable(fid, n):
            continue
        if fid in sweeps:
            start = time.perf_counter_ns()
            try:
                _, value = next(sweeps[fid])
            except Exception:  # the per-index call below records the error
                del sweeps[fid]
            else:
                evaluations.append(FormulaEvaluation(fid, n, value, time.perf_counter_ns() - start))
                continue
        evaluations.append(_evaluate(fid, n))
    return evaluations


def _record_for(n: int, evaluations: Sequence[FormulaEvaluation]) -> IndexRecord:
    oracle = next(e for e in evaluations if e.formula is FormulaId.SERIES_ORACLE)
    if not oracle.ok:
        raise RuntimeError(f"series oracle failed at n={n}: {oracle.error}")
    consensus = oracle.value
    agreeing = []
    dissenting = []
    for ev in evaluations:  # in FormulaId order, as evaluate_all lists them
        if ev.ok and ev.value == consensus:
            agreeing.append(ev.formula)
        elif ev.ok:
            dissenting.append((ev.formula, format_rational(ev.value)))
        else:
            dissenting.append((ev.formula, f"ERROR: {ev.error}"))
    return IndexRecord(n, consensus, tuple(agreeing), tuple(dissenting))


def verify_range(max_n: int) -> VerificationReport:
    """Differential report over indices 0..max_n.

    A row with a sweep is read through it, in one pass over the range; the
    other rows are evaluated per index, as in evaluate_all.  The report
    content is deterministic and carries no timing fields.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    sweeps = {fid: sweep for fid in FormulaId if (sweep := bernoulli_sweep(fid, max_n)) is not None}
    records = tuple(_record_for(n, _evaluate_swept(n, sweeps)) for n in range(max_n + 1))
    agreements = sum(len(r.agreeing) for r in records)
    dissents = sum(len(r.dissenting) for r in records)
    trusted_dissent = any(
        fid.trusted for r in records for fid, _ in r.dissenting
    )
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
