"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live;
without -s pytest shows them for failing criteria only.

All tolerances are exact equality; the timed criteria also assert their
wall-clock budget.
"""
import time
from contextlib import contextmanager
from fractions import Fraction

from bernocchi.cli import main
from bernocchi.derivatives import (
    derivative_polynomial,
    derivative_polynomial_reference,
    genocchi_from_derivatives,
    logistic_derivative_polynomial,
    logistic_derivative_polynomial_reference,
)
from bernocchi.exact import format_rational
from bernocchi.formulas import (
    FormulaId,
    bernoulli_faulhaber_recursion,
    bernoulli_series_oracle,
    faulhaber_coefficients,
    formula_value,
    genocchi_from_bernoulli,
    genocchi_theorem,
)
from bernocchi.harness import Verdict, verify_range
from bernocchi.stirling import (
    stirling_enumerate,
    stirling_explicit,
    stirling_via_series,
    triangle_build,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_genocchi_table_reproduction(capsys):
    # A widely reprinted table gives G_18 = -28820618; its last digit is a
    # typo. By von Staudt-Clausen the denominator of B_18 is 2*3*7*19 = 798,
    # and the Bernoulli recurrence gives B_18 = 43867/798. Then
    # G_18 = 2(1 - 2^18) B_18 = -2*262143*43867/798, and 262143 = 399*657,
    # so G_18 = -657*43867 = -28820619 (|G_18| as listed in OEIS A001469).
    expected = [1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0, 2073, 0, -38227, 0,
                929569, 0, -28820619]
    with criterion("1 genocchi table reproduction (exact, < 1 s)"):
        start = time.perf_counter()
        code, out = run_cli(capsys, "table", "genocchi", "18")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0, f"took {elapsed:.3f} s"
        rows = [line.split() for line in out.splitlines()]
        actual = [int(value) for _, value in rows]
        assert [int(n) for n, _ in rows] == list(range(1, 19))
        mismatches = [
            (n, got, want)
            for n, (got, want) in enumerate(zip(actual, expected), start=1)
            if got != want
        ]
        assert actual == expected, (
            f"table values differ at {mismatches} (index, got, expected)"
        )
        # Three more routes to G_18, each independent of the Stirling sum
        # behind the table: the oracle through the bridge, the derivative
        # polynomials, and the Brent-Harvey tangent numbers.
        assert genocchi_from_bernoulli(18, bernoulli_series_oracle(18)) == -28820619
        assert genocchi_from_derivatives(18) == -28820619
        brent_harvey = formula_value(FormulaId.BRENT_HARVEY_TANGENT, 18)
        assert genocchi_from_bernoulli(18, brent_harvey) == -28820619


def test_criterion_02_trusted_formula_consensus(capsys):
    expected_even = {
        FormulaId.HIGGINS_9,
        FormulaId.STIRLING_SINGLE_10,
        FormulaId.GOULD_DOUBLE_11,
        FormulaId.STIRLING_RATIO_12,
        FormulaId.FAULHABER_RECURSION_13,
        FormulaId.DOUBLE_STIRLING_15,
        FormulaId.BRENT_HARVEY_TANGENT,
    }
    expected_other = {
        FormulaId.HIGGINS_9,
        FormulaId.STIRLING_SINGLE_10,
        FormulaId.GOULD_DOUBLE_11,
        FormulaId.STIRLING_RATIO_12,
    }
    with criterion("2 trusted-formula consensus for n = 0..60 (exact, < 10 s)"):
        start = time.perf_counter()
        report = verify_range(60)
        code, _ = run_cli(capsys, "verify", "--max-n", "60")
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s"
        assert code == 0
        assert report.verdict is Verdict.ALL_TRUSTED_AGREE
        for record in report.records:
            assert record.consensus == bernoulli_series_oracle(record.n)
            agreeing = set(record.agreeing)
            wanted = expected_even if record.n >= 2 and record.n % 2 == 0 else expected_other
            missing = wanted - agreeing
            assert not missing, f"n={record.n}: {missing} not in consensus"


def test_criterion_03_genocchi_theorem_equivalence():
    with criterion("3 Stirling-sum Genocchi = 2(1-2^k) B_k for k = 1..60 (exact, < 5 s)"):
        start = time.perf_counter()
        for k in range(1, 61):
            g = genocchi_theorem(k)
            assert g.denominator == 1, f"G_{k} not an integer: {g}"
            assert g == 2 * (1 - Fraction(2) ** k) * bernoulli_series_oracle(k)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_criterion_04_proof_chain_equivalence():
    with criterion("4 derivative-route Genocchi = Stirling-sum Genocchi for k = 1..30"):
        for k in range(1, 31):
            assert genocchi_from_derivatives(k) == genocchi_theorem(k)


def test_criterion_05_derivative_identities():
    with criterion("5 derivative polynomials match Stirling closed forms (k = 0..12)"):
        for k in range(13):
            for alpha in (1, 2, Fraction(1, 2)):
                assert derivative_polynomial(k, alpha) == derivative_polynomial_reference(k, alpha)
            assert logistic_derivative_polynomial(k) == logistic_derivative_polynomial_reference(k)


def test_criterion_06_stirling_cross_validation():
    with criterion("6 Stirling routes agree (n <= 40; enumeration n <= 8)"):
        triangle = triangle_build(40)
        for n in range(41):
            for k in range(n + 1):
                value = triangle.value(n, k)
                assert stirling_explicit(n, k) == value
                if k >= 1:
                    assert stirling_via_series(n, k, order=40) == value
        for n in range(9):
            for k in range(n + 1):
                assert stirling_enumerate(n, k) == triangle.value(n, k)


def test_criterion_07_known_discrepancy_detection(capsys):
    with criterion("7 printed tangent-style formula dissents (1/3 at n=2, -1/10 at n=4)"):
        report = verify_range(4)
        assert report.records[2].consensus == Fraction(1, 6)
        assert report.records[4].consensus == Fraction(-1, 30)
        assert report.records[2].dissenting == (
            (FormulaId.TANGENT_DOUBLE_14_AS_PRINTED, "1/3"),
        )
        assert report.records[4].dissenting == (
            (FormulaId.TANGENT_DOUBLE_14_AS_PRINTED, "-1/10"),
        )
        assert report.verdict is Verdict.ALL_TRUSTED_AGREE
        code, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 0


def test_criterion_08_faulhaber_checks():
    with criterion("8 power-sum tables reproduce direct sums (p <= 25); recursion seeds"):
        for p in range(26):
            table = faulhaber_coefficients(p)
            running = Fraction(0)
            for n in range(1, p + 4):
                running += Fraction(n) ** p
                assert table.evaluate(n) == running
        assert bernoulli_faulhaber_recursion(1) == Fraction(1, 6)
        assert bernoulli_faulhaber_recursion(2) == Fraction(-1, 30)
        assert bernoulli_faulhaber_recursion(3) == Fraction(1, 42)


def test_criterion_09_determinism_and_cache_transparency(capsys):
    with criterion("9 verify --max-n 40 --deterministic is byte-stable, cold and warm"):
        cold_a = run_cli(capsys, "verify", "--max-n", "40", "--deterministic")
        cold_b = run_cli(capsys, "verify", "--max-n", "40", "--deterministic")
        assert cold_a == cold_b
        code, _ = run_cli(capsys, "cache", "build", "80")
        assert code == 0
        warm = run_cli(capsys, "verify", "--max-n", "40", "--deterministic")
        assert warm == cold_a
        run_cli(capsys, "cache", "clear")


def test_criterion_10_bench_schema(capsys):
    with criterion("10 bench --max-n 64 --reps 3 emits the CSV schema with consensus values"):
        code, out = run_cli(capsys, "bench", "--max-n", "64", "--reps", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "formula,n,reps,median_ns,value"
        rows = [line.split(",") for line in lines[1:]]
        trusted = [fid.value for fid in FormulaId if fid.trusted]
        seen = {(row[0], int(row[1])) for row in rows}
        assert seen == {(name, n) for name in trusted for n in (8, 16, 32, 64)}
        for name, n, reps, median_ns, value in rows:
            assert reps == "3"
            assert int(median_ns) >= 0
            assert value == format_rational(bernoulli_series_oracle(int(n)))
