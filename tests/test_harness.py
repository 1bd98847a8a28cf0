"""Differential harness: consensus, dissent classification, benchmarks."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernocchi import formulas, harness
from bernocchi.exact import format_rational
from bernocchi.formulas import FormulaId, bernoulli_series_oracle
from bernocchi.harness import (
    BenchRecord,
    FormulaEvaluation,
    IndexRecord,
    Verdict,
    VerificationReport,
    bench,
    evaluate_all,
    report_to_dict,
    report_to_json,
    verify_range,
)


def test_evaluate_all_at_two():
    evals = {e.formula: e for e in evaluate_all(2)}
    sixth = Fraction(1, 6)
    for fid, e in evals.items():
        assert e.ok
        if fid is FormulaId.TANGENT_DOUBLE_14_AS_PRINTED:
            assert e.value == Fraction(1, 3)
        else:
            assert e.value == sixth
    assert set(evals) == set(FormulaId)


def test_evaluate_all_at_zero():
    evals = evaluate_all(0)
    assert {e.formula for e in evals} == {
        FormulaId.SERIES_ORACLE,
        FormulaId.HIGGINS_9,
        FormulaId.STIRLING_SINGLE_10,
        FormulaId.GOULD_DOUBLE_11,
        FormulaId.STIRLING_RATIO_12,
    }
    assert all(e.value == 1 for e in evals)


def test_evaluate_all_at_odd_index():
    evals = evaluate_all(7)
    ids = {e.formula for e in evals}
    assert FormulaId.FAULHABER_RECURSION_13 not in ids
    assert FormulaId.TANGENT_DOUBLE_14_AS_PRINTED not in ids
    assert FormulaId.DOUBLE_STIRLING_15 not in ids
    assert FormulaId.BRENT_HARVEY_TANGENT not in ids
    assert all(e.value == 0 for e in evals)


def test_evaluate_all_records_timing():
    evals = evaluate_all(4)
    assert all(e.elapsed_ns >= 0 for e in evals)


def test_verify_range_zero():
    report = verify_range(0)
    assert report.verdict is Verdict.ALL_TRUSTED_AGREE
    assert len(report.records) == 1
    assert report.records[0].consensus == 1
    assert report.records[0].dissenting == ()


def test_verify_range_one():
    report = verify_range(1)
    assert report.records[1].consensus == Fraction(-1, 2)


def test_verify_range_twenty():
    report = verify_range(20)
    assert report.verdict is Verdict.ALL_TRUSTED_AGREE
    for record in report.records:
        assert record.consensus == bernoulli_series_oracle(record.n)
        if record.n >= 2 and record.n % 2 == 0:
            assert [fid for fid, _ in record.dissenting] == [
                FormulaId.TANGENT_DOUBLE_14_AS_PRINTED
            ]
        else:
            assert record.dissenting == ()
    assert report.dissents == 10


def test_dissent_value_at_two_and_four():
    report = verify_range(4)
    assert report.records[2].dissenting == (
        (FormulaId.TANGENT_DOUBLE_14_AS_PRINTED, "1/3"),
    )
    assert report.records[4].dissenting == (
        (FormulaId.TANGENT_DOUBLE_14_AS_PRINTED, "-1/10"),
    )


def test_a_raising_formula_becomes_a_dissent_entry(replace_row):
    def boom(n):
        raise ZeroDivisionError("boom")

    replace_row(FormulaId.STIRLING_RATIO_12, boom)
    report = verify_range(4)
    assert report.verdict is Verdict.TRUSTED_DISSENT_FOUND
    assert [r.n for r in report.records] == [0, 1, 2, 3, 4]  # the sweep goes on
    for record in report.records:
        assert (FormulaId.STIRLING_RATIO_12, "ERROR: ZeroDivisionError: boom") in record.dissenting
        assert record.consensus == bernoulli_series_oracle(record.n)


def test_swept_report_equals_the_per_index_report():
    records = []
    for n in range(121):
        evaluations = evaluate_all(n)  # in FormulaId order, the oracle first
        consensus = evaluations[0].value
        agreeing = tuple(e.formula for e in evaluations if e.ok and e.value == consensus)
        dissenting = tuple(
            (e.formula, format_rational(e.value) if e.ok else f"ERROR: {e.error}")
            for e in evaluations
            if not (e.ok and e.value == consensus)
        )
        records.append(IndexRecord(n, consensus, agreeing, dissenting))
    assert verify_range(120).records == tuple(records)


def test_a_raising_sweep_hands_its_index_and_the_rest_to_the_per_index_path(monkeypatch):
    sweep = formulas._gould_sweep

    def breaking(max_n):
        for n, value in sweep(max_n):
            if n == 2:
                raise ArithmeticError("the sweep broke")
            yield n, value

    def boom(n):
        raise ZeroDivisionError(f"boom at {n}")

    monkeypatch.setattr(formulas, "_gould_sweep", breaking)
    monkeypatch.setattr(formulas, "bernoulli_gould_double", boom)
    report = verify_range(6)
    assert [r.n for r in report.records] == list(range(7))
    for record in report.records[:2]:  # read off the sweep
        assert FormulaId.GOULD_DOUBLE_11 in record.agreeing
    for record in report.records[2:]:  # evaluated per index, one error each
        error = f"ERROR: ZeroDivisionError: boom at {record.n}"
        assert (FormulaId.GOULD_DOUBLE_11, error) in record.dissenting


def test_a_sweep_that_skips_an_index_hands_it_and_the_rest_to_the_per_index_path(monkeypatch):
    sweep = formulas._gould_sweep
    drawn = []

    def skipping(max_n):
        for n, value in sweep(max_n):
            if n != 2:
                drawn.append(n)
                yield n, value

    monkeypatch.setattr(formulas, "_gould_sweep", skipping)
    report = verify_range(6)
    assert [r.n for r in report.records] == list(range(7))
    for record in report.records:  # read off the sweep at n = 0, 1, per index from 2 on
        assert FormulaId.GOULD_DOUBLE_11 in record.agreeing
    assert report.verdict is Verdict.ALL_TRUSTED_AGREE
    assert drawn == [0, 1, 3]  # nothing is read from the sweep after the wrong n


def test_an_oracle_failing_later_raises_before_any_other_row_runs(replace_row):
    calls = []

    def breaking(n):
        if n >= 3:
            raise ArithmeticError("boom")
        return bernoulli_series_oracle(n)

    def counting(n):
        calls.append(n)
        return formulas.bernoulli_stirling_ratio(n)

    replace_row(FormulaId.SERIES_ORACLE, breaking)
    replace_row(FormulaId.STIRLING_RATIO_12, counting)
    with pytest.raises(RuntimeError, match="series oracle failed at n=3: ArithmeticError: boom"):
        verify_range(6)
    assert calls == []


def test_a_raising_oracle_aborts_the_sweep(replace_row):
    def boom(n):
        raise ArithmeticError("boom")

    replace_row(FormulaId.SERIES_ORACLE, boom)
    with pytest.raises(RuntimeError, match="series oracle failed at n=0"):
        verify_range(4)


def test_verify_range_deterministic():
    assert verify_range(12) == verify_range(12)


def test_report_serialization_schema():
    report = verify_range(4)
    data = report_to_dict(report)
    assert data["max_n"] == 4
    assert data["verdict"] == "ALL_TRUSTED_AGREE"
    assert data["summary"] == {"agreements": report.agreements, "dissents": 2}
    record = data["records"][2]
    assert record["n"] == 2
    assert record["consensus"] == "1/6"
    assert "SERIES_ORACLE" in record["agreeing"]
    assert record["dissenting"] == [
        {"formula": "TANGENT_DOUBLE_14_AS_PRINTED", "value": "1/3"}
    ]
    assert json.loads(report_to_json(report)) == data


def assert_written_as_json_dumps(report):
    assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2)


@pytest.mark.parametrize("max_n", [0, 1, 4, 40])
def test_report_json_is_json_dumps_of_the_dict(max_n):
    assert_written_as_json_dumps(verify_range(max_n))


formula_ids = st.sampled_from(list(FormulaId))
# Text that JSON must escape: quote, backslash, C0 controls, DEL, non-ASCII,
# a lone surrogate and an astral character, mixed with plain ASCII.
awkward_text = st.text(st.sampled_from('"\\\x00\x08\t\n\x1f\x7f \xe9\u2028\ud800\U0001d11e/-1aZ'))
index_records = st.builds(
    IndexRecord,
    n=st.integers(0, 10**6),
    consensus=st.fractions(),
    agreeing=st.lists(formula_ids, max_size=4).map(tuple),
    dissenting=st.lists(st.tuples(formula_ids, st.text() | awkward_text), max_size=3).map(tuple),
)
reports = st.builds(
    VerificationReport,
    max_n=st.integers(0, 500),
    records=st.lists(index_records, max_size=4).map(tuple),
    agreements=st.integers(0, 10**4),
    dissents=st.integers(0, 10**4),
    verdict=st.sampled_from(list(Verdict)),
)


@settings(max_examples=200, deadline=None)
@given(reports)
def test_report_json_escapes_any_dissent_text_as_json_dumps_does(report):
    assert_written_as_json_dumps(report)


def test_report_json_writes_an_empty_agreeing_list():
    record = IndexRecord(3, Fraction(-1, 2), (), ((FormulaId.HIGGINS_9, 'ERROR: ValueError: "x"'),))
    report = VerificationReport(3, (record,), 0, 1, Verdict.TRUSTED_DISSENT_FOUND)
    assert '"agreeing": [],' in report_to_json(report)
    assert_written_as_json_dumps(report)


def test_bench_empty_inputs():
    assert bench([], [8], 3) == []
    assert bench([FormulaId.SERIES_ORACLE], [], 3) == []


def test_bench_rejects_zero_reps():
    with pytest.raises(ValueError):
        bench([FormulaId.SERIES_ORACLE], [8], 0)


def test_bench_single_repetition_median():
    records = bench([FormulaId.SERIES_ORACLE], [8], 1)
    assert len(records) == 1
    assert records[0].repetitions == 1
    assert records[0].median_ns >= 0


def test_bench_digests_match_consensus():
    trusted = [fid for fid in FormulaId if fid.trusted]
    records = bench(trusted, [8, 16], 2)
    assert len(records) == len(trusted) * 2
    for record in records:
        expected = bernoulli_series_oracle(record.n)
        assert record.value == (
            str(expected) if expected.denominator == 1 else f"{expected.numerator}/{expected.denominator}"
        )


def test_bench_rejects_a_varying_value(replace_row):
    calls = iter(range(100))
    replace_row(FormulaId.HIGGINS_9, lambda n: Fraction(next(calls)))
    with pytest.raises(RuntimeError, match="varying"):
        bench([FormulaId.HIGGINS_9], [8], 2)


def test_bench_rejects_inapplicable_pair():
    with pytest.raises(ValueError):
        bench([FormulaId.FAULHABER_RECURSION_13], [7], 1)


def test_bench_reports_the_lower_median_for_an_even_count(monkeypatch):
    # Two clock reads per repetition; the warm-up is not timed.
    durations = [40, 10, 30, 20]
    reads = iter([t for d in durations for t in (0, d)])
    monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: next(reads))
    (record,) = bench([FormulaId.SERIES_ORACLE], [8], repetitions=4)
    assert record.median_ns == 20


@pytest.mark.parametrize(
    "record_type, fields",
    [
        (FormulaEvaluation, ("formula", "n", "value", "elapsed_ns", "error")),
        (IndexRecord, ("n", "consensus", "agreeing", "dissenting")),
        (VerificationReport, ("max_n", "records", "agreements", "dissents", "verdict")),
        (BenchRecord, ("formula", "n", "repetitions", "median_ns", "value")),
    ],
)
def test_record_fields_keep_their_order(record_type, fields):
    assert record_type._fields == fields


def test_records_are_immutable():
    report = verify_range(2)
    (bench_record,) = bench([FormulaId.SERIES_ORACLE], [8], 1)
    for record in (evaluate_all(2)[0], report.records[0], report, bench_record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[1], 3)
        with pytest.raises(AttributeError):
            record.extra = 3


def test_formula_evaluation_defaults_to_no_error():
    evaluation = FormulaEvaluation(FormulaId.SERIES_ORACLE, 2, Fraction(1, 6), 0)
    assert evaluation.error is None
    assert evaluation.ok


def test_bench_record_replace_keeps_the_other_fields():
    record = BenchRecord(FormulaId.HIGGINS_9, 8, 3, 1234, "-1/30")
    zeroed = record._replace(median_ns=0)
    assert zeroed == BenchRecord(FormulaId.HIGGINS_9, 8, 3, 0, "-1/30")
    assert type(zeroed) is BenchRecord
