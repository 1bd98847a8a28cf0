"""Bernoulli/Genocchi formulas against the independent series oracle."""
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from bernocchi import derivatives, formulas, reset_caches, stirling
from bernocchi.formulas import (
    B0,
    B1,
    FormulaId,
    bernoulli_double_stirling,
    bernoulli_faulhaber_recursion,
    bernoulli_from_genocchi,
    bernoulli_from_tangent,
    bernoulli_gould_double,
    bernoulli_higgins,
    bernoulli_series_oracle,
    bernoulli_stirling_ratio,
    bernoulli_stirling_single,
    bernoulli_sweep,
    bernoulli_tangent_double_as_printed,
    euler_at_zero,
    faulhaber_coefficients,
    formula_bernoulli_value,
    formula_value,
    genocchi_from_bernoulli,
    genocchi_theorem,
    is_applicable,
    tangent_numbers,
)
from bernocchi.polynomial import X, interpolate
from bernocchi.stirling import (
    StirlingTriangle,
    shared_triangle,
    stirling_explicit,
    stirling_via_series,
    triangle_build,
)

# Hand-unrolled values of the generating-function recurrence.
KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}

# Reference Genocchi values.  Everything through G_16 matches the commonly
# printed table; the often-quoted -28820618 for G_18 is a typo (last digit):
# the Stirling sum, the 2(1-2^n)B_n bridge on the independent oracle, and
# the derivative-polynomial route all give -28820619 (= -657 * 43867).
KNOWN_GENOCCHI = {
    1: 1,
    2: -1,
    4: 1,
    6: -3,
    8: 17,
    10: -155,
    12: 2073,
    14: -38227,
    16: 929569,
    18: -28820619,
}

# The registry as the README states it: trusted, even_only, then
# is_applicable ("+"/"-") and the highest Stirling row read at n = -1, 0, 1, ..., 8.
REGISTRY = {
    FormulaId.SERIES_ORACLE: (True, False, "-+++++++++", [0] * 10),
    FormulaId.HIGGINS_9: (True, False, "-+++++++++", [0] * 10),
    FormulaId.STIRLING_SINGLE_10: (True, False, "-+++++++++", list(range(-1, 9))),
    FormulaId.GOULD_DOUBLE_11: (True, False, "-+++++++++", [0] * 10),
    FormulaId.STIRLING_RATIO_12: (True, False, "-+++++++++", list(range(-2, 17, 2))),
    FormulaId.FAULHABER_RECURSION_13: (True, True, "---+-+-+-+", [0] * 10),
    FormulaId.TANGENT_DOUBLE_14_AS_PRINTED: (False, True, "---+-+-+-+", [0] * 10),
    FormulaId.DOUBLE_STIRLING_15: (True, True, "---+-+-+-+", list(range(0, 10))),
    FormulaId.GENOCCHI_THEOREM_16: (True, False, "--++++++++", list(range(-1, 9))),
    FormulaId.BRENT_HARVEY_TANGENT: (True, True, "---+-+-+-+", [0] * 10),
}

# Each formula's own function, and whether it takes n or n // 2.
DIRECT = {
    FormulaId.SERIES_ORACLE: (bernoulli_series_oracle, False),
    FormulaId.HIGGINS_9: (bernoulli_higgins, False),
    FormulaId.STIRLING_SINGLE_10: (bernoulli_stirling_single, False),
    FormulaId.GOULD_DOUBLE_11: (bernoulli_gould_double, False),
    FormulaId.STIRLING_RATIO_12: (bernoulli_stirling_ratio, False),
    FormulaId.FAULHABER_RECURSION_13: (bernoulli_faulhaber_recursion, True),
    FormulaId.TANGENT_DOUBLE_14_AS_PRINTED: (bernoulli_tangent_double_as_printed, True),
    FormulaId.DOUBLE_STIRLING_15: (bernoulli_double_stirling, True),
    FormulaId.GENOCCHI_THEOREM_16: (genocchi_theorem, False),
    FormulaId.BRENT_HARVEY_TANGENT: (lambda k: bernoulli_from_tangent(k, tangent_numbers(k)[k]), True),
}

TRUSTED_BERNOULLI_FORMULAS = [
    FormulaId.HIGGINS_9,
    FormulaId.STIRLING_SINGLE_10,
    FormulaId.GOULD_DOUBLE_11,
    FormulaId.STIRLING_RATIO_12,
]


def test_domain_constants():
    assert B0 == 1
    assert B1 == Fraction(-1, 2)


def test_oracle_known_values():
    for n, value in KNOWN_BERNOULLI.items():
        assert bernoulli_series_oracle(n) == value


def test_oracle_odd_indices_vanish():
    for n in range(3, 301, 2):
        assert bernoulli_series_oracle(n) == 0


def _fraction_recurrence(n):
    """B_0..B_n by the same recurrence as a chain of Fraction additions."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(Fraction(-acc, m + 1))
    return values


def test_oracle_equals_fraction_recurrence():
    reference = _fraction_recurrence(300)
    assert [bernoulli_series_oracle(n) for n in range(301)] == reference


def test_oracle_denominators_follow_von_staudt_clausen():
    # denom(B_2k) is the product of the primes p with (p - 1) | 2k.
    primes = [p for p in range(2, 302) if all(p % d for d in range(2, p))]
    for n in range(2, 301, 2):
        value = bernoulli_series_oracle(n)
        assert value.denominator == prod(p for p in primes if n % (p - 1) == 0)


def test_oracle_grown_in_chunks_after_reset_equals_one_cold_call():
    reset_caches()
    bernoulli_series_oracle(300)
    cold = [bernoulli_series_oracle(n) for n in range(301)]
    reset_caches()
    assert formulas._oracle == (2, [2, -1], [1, 2, 1])
    for n in (0, 37, 38, 300):
        bernoulli_series_oracle(n)
    assert [bernoulli_series_oracle(n) for n in range(301)] == cold


def test_reset_caches_empties_every_memo():
    bernoulli_series_oracle(40)
    shared_triangle(30)
    stirling_via_series(12, 5)
    stirling_explicit(12, 5)
    derivatives.genocchi_from_derivatives(20)
    assert derivatives._iterate[:2] == (derivatives.LOGISTIC_RULE, 19)
    derivatives.derivative_polynomial(7, 2)
    assert len(stirling._expm1_rows) > 1
    assert stirling._power_table[0] == 12
    assert derivatives._iterate[1] == 7
    reset_caches()
    assert formulas._oracle == (2, [2, -1], [1, 2, 1])
    assert stirling._shared_rows == [(1,)]
    assert stirling._expm1_rows == [[1]]
    assert stirling._power_table == (0, [1], [1])
    assert derivatives._iterate == (derivatives.LOGISTIC_RULE, 0, X.numerators)


def raising_on_call(function, number):
    """function, except that call `number` raises MemoryError."""
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == number:
            raise MemoryError
        return function(*args, **kwargs)

    return wrapped


# (module, name patched to fail, value at index n read through the memo)
INTERRUPTED_MEMOS = [
    pytest.param(formulas, "Fraction", bernoulli_series_oracle, id="oracle-sum"),
    pytest.param(formulas, "gcd", bernoulli_series_oracle, id="oracle-rescale"),
    pytest.param(stirling, "_next_row", lambda n: shared_triangle(n).row(n), id="shared-triangle"),
    pytest.param(
        stirling,
        "comb",
        lambda n: [stirling_via_series(n, k) for k in range(1, n + 1)],
        id="series-rows",
    ),
    pytest.param(stirling, "accumulate", lambda m: stirling_explicit(40, m), id="explicit-table"),
    pytest.param(derivatives, "_step", derivatives.logistic_derivative_polynomial, id="logistic-iterate"),
    pytest.param(derivatives, "_step", lambda n: derivatives.derivative_polynomial(n, 2), id="expm1-iterate"),
    pytest.param(
        derivatives, "_step", lambda n: derivatives.genocchi_from_derivatives(n + 1), id="genocchi-values"
    ),
]


@pytest.mark.parametrize("number", [1, 3])
@pytest.mark.parametrize("module, name, value", INTERRUPTED_MEMOS)
def test_a_step_that_raises_leaves_the_memo_as_it_was(monkeypatch, module, name, value, number):
    reset_caches()
    cold = [value(n) for n in range(41)]
    reset_caches()
    value(3)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, raising_on_call(getattr(module, name), number))
        with pytest.raises(MemoryError):
            value(12)
    assert [value(n) for n in range(41)] == cold


def test_higgins_examples():
    assert bernoulli_higgins(0) == 1
    assert bernoulli_higgins(2) == Fraction(1, 6)
    assert bernoulli_higgins(3) == 0
    for n in range(301):
        assert bernoulli_higgins(n) == bernoulli_series_oracle(n), n


def higgins_reference(n):
    """sum_k 1/(k+1) sum_j (-1)^j C(k,j) j^n as printed, one Fraction per term."""
    return sum(
        (
            Fraction((-1) ** j * comb(k, j) * j**n, k + 1)
            for k in range(n + 1)
            for j in range(k + 1)
        ),
        Fraction(0),
    )


def test_higgins_equals_the_printed_double_sum():
    for n in range(41):
        assert bernoulli_higgins(n) == higgins_reference(n), n


def test_stirling_single_examples():
    assert bernoulli_stirling_single(0) == 1
    # -(1/2) S(2,1) + (2/3) S(2,2) = -1/2 + 2/3
    assert bernoulli_stirling_single(2) == Fraction(1, 6)
    for k in range(11):
        assert bernoulli_stirling_single(2 * k + 3) == 0


def test_gould_double_examples():
    assert bernoulli_gould_double(0) == 1
    assert bernoulli_gould_double(2) == Fraction(1, 6)  # 0 - 1 + 7/6
    assert bernoulli_gould_double(1) == Fraction(-1, 2)


def gould_double_reference(n):
    """sum_j (-1)^j C(n+1,j+1) n!/(n+j)! sum_k (-1)^(j-k) C(j,k) k^(n+j) as printed,
    one Fraction per outer term and math.comb per inner term."""
    return sum(
        (
            Fraction((-1) ** j * comb(n + 1, j + 1) * factorial(n), factorial(n + j))
            * sum((-1) ** (j - k) * comb(j, k) * k ** (n + j) for k in range(j + 1))
            for j in range(n + 1)
        ),
        Fraction(0),
    )


def test_gould_double_equals_the_printed_double_sum():
    for n in range(121):
        assert bernoulli_gould_double(n) == gould_double_reference(n), n


def test_gould_double_equals_the_tangent_numbers_beyond_the_reference():
    tangents = tangent_numbers(128)
    for n in (150, 200, 256):
        assert bernoulli_gould_double(n) == bernoulli_from_tangent(n // 2, tangents[n // 2]), n
    for n in (151, 201):
        assert bernoulli_gould_double(n) == 0, n


def test_stirling_ratio_examples():
    assert bernoulli_stirling_ratio(0) == 1
    # -S(3,1) + (1/6) S(4,2) = -1 + 7/6
    assert bernoulli_stirling_ratio(2) == Fraction(1, 6)
    assert bernoulli_stirling_ratio(5) == 0


def stirling_ratio_reference(n, rows):
    """sum_i (-1)^i C(n+1,i+1)/C(n+i,i) S(n+i,i) as written, one Fraction per term."""
    return sum(
        (
            (-1) ** i * Fraction(comb(n + 1, i + 1), comb(n + i, i)) * rows[n + i][i]
            for i in range(n + 1)
        ),
        Fraction(0),
    )


def double_stirling_reference(k, rows):
    """1 + sum_m S(2k+1,m+1) S(2k,2k-m) / C(2k,m)
    - 2k/(2k+1) sum_m S(2k,m) S(2k+1,2k-m+1) / C(2k,m-1), one Fraction per term."""
    n2 = 2 * k
    first = sum(
        (Fraction(rows[n2 + 1][m + 1] * rows[n2][n2 - m], comb(n2, m)) for m in range(1, n2)),
        Fraction(0),
    )
    second = sum(
        (
            Fraction(rows[n2][m] * rows[n2 + 1][n2 - m + 1], comb(n2, m - 1))
            for m in range(1, n2 + 1)
        ),
        Fraction(0),
    )
    return 1 + first - Fraction(n2, n2 + 1) * second


def test_stirling_ratio_and_double_stirling_equal_their_fraction_sums():
    rows = triangle_build(2 * 120 + 1).rows
    for n in range(121):
        assert bernoulli_stirling_ratio(n) == stirling_ratio_reference(n, rows)
        if n >= 2 and n % 2 == 0:
            assert bernoulli_double_stirling(n // 2) == double_stirling_reference(n // 2, rows)


def test_faulhaber_coefficient_examples():
    assert faulhaber_coefficients(0).coefficients == (0, 1)
    assert faulhaber_coefficients(1).coefficients == (0, Fraction(1, 2), Fraction(1, 2))
    assert faulhaber_coefficients(3).coefficients == (
        0,
        0,
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )


def test_faulhaber_tables_reproduce_power_sums():
    for p in range(0, 41):
        table = faulhaber_coefficients(p)
        assert table.coefficient(0) == 0
        running = Fraction(0)
        for n in range(1, p + 4):  # nodes are 0..p+1; p+2 and p+3 are off-node
            running += n**p
            assert table.evaluate(n) == running


def faulhaber_recursion_reference(k):
    """1/2 - 1/(2k+1) - 2k sum_{i=1..k-1} A_{2(k-i)}/(2(k-i)+1) as printed, one
    Fraction per term, with the A_m interpolated through (n, sum_{m<=n} m^(2k-1))."""
    p = 2 * k - 1
    table = interpolate([(n, sum(m**p for m in range(1, n + 1))) for n in range(p + 2)])
    tail = sum(
        (table.coefficient(2 * (k - i)) / (2 * (k - i) + 1) for i in range(1, k)),
        Fraction(0),
    )
    return Fraction(1, 2) - Fraction(1, 2 * k + 1) - 2 * k * tail


def test_faulhaber_recursion_equals_the_printed_sum():
    for k in range(1, 61):
        assert bernoulli_faulhaber_recursion(k) == faulhaber_recursion_reference(k), k


def test_gould_and_faulhaber_read_neither_the_triangle_nor_the_oracle(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an independent route read the triangle or the oracle")

    monkeypatch.setattr(formulas, "shared_triangle", forbidden)
    monkeypatch.setattr(formulas, "bernoulli_series_oracle", forbidden)
    for n in (0, 1, 2, 12, 38):
        assert bernoulli_gould_double(n) == bernoulli_higgins(n)
    for k in (1, 2, 6, 19):
        assert bernoulli_faulhaber_recursion(k) == bernoulli_higgins(2 * k)


def test_faulhaber_recursion_examples():
    assert bernoulli_faulhaber_recursion(1) == Fraction(1, 6)  # 1/2 - 1/3
    assert bernoulli_faulhaber_recursion(2) == Fraction(-1, 30)
    assert bernoulli_faulhaber_recursion(3) == Fraction(1, 42)


def test_tangent_double_as_printed_is_wrong_on_purpose():
    # single term i=l=0 gives inner sum 1, prefactor 1/3
    assert bernoulli_tangent_double_as_printed(1) == Fraction(1, 3)
    # inner sum 8 - 4 - 1 = 3, prefactor -1/30
    assert bernoulli_tangent_double_as_printed(2) == Fraction(-1, 10)
    assert bernoulli_tangent_double_as_printed(1) != bernoulli_series_oracle(2)


def tangent_double_reference(k):
    """The printed double sum, term by term in the printed order."""
    inner = sum(
        (-1) ** (i + l) * comb(2 * k, l) * (k - i - l) ** (2 * k - 1)
        for i in range(k)
        for l in range(k - i)
    )
    return Fraction((-1) ** (k - 1) * k * inner, 2 ** (2 * (k - 1)) * (2 ** (2 * k) - 1))


def test_tangent_double_as_printed_equals_the_printed_double_sum():
    # The untrusted value must not move, only the order of summation.
    for k in range(1, 61):
        assert bernoulli_tangent_double_as_printed(k) == tangent_double_reference(k)


def test_double_stirling_examples():
    # 1 + 3/2 - (2/3)(7/2)
    assert bernoulli_double_stirling(1) == Fraction(1, 6)
    assert bernoulli_double_stirling(2) == bernoulli_series_oracle(4)
    assert bernoulli_double_stirling(3) == bernoulli_series_oracle(6)


def test_genocchi_theorem_known_values():
    for k, value in KNOWN_GENOCCHI.items():
        assert genocchi_theorem(k) == value


def test_genocchi_theorem_integral_and_vanishing():
    for k in range(1, 41):
        g = genocchi_theorem(k)
        assert g.denominator == 1
        if k >= 3 and k % 2 == 1:
            assert g == 0


def test_genocchi_sign_alternates():
    signs = [1 if genocchi_theorem(2 * n) > 0 else -1 for n in range(1, 10)]
    assert signs == [-1, 1, -1, 1, -1, 1, -1, 1, -1]


def test_genocchi_bridge_from_bernoulli():
    assert genocchi_from_bernoulli(1, Fraction(-1, 2)) == 1
    assert genocchi_from_bernoulli(6, Fraction(1, 42)) == -3
    assert genocchi_from_bernoulli(3, Fraction(0)) == 0


def test_bernoulli_from_genocchi():
    assert bernoulli_from_genocchi(2, Fraction(-1)) == Fraction(1, 6)
    assert bernoulli_from_genocchi(8, Fraction(17)) == Fraction(-1, 30)
    assert bernoulli_from_genocchi(5, Fraction(0)) == 0
    with pytest.raises(ValueError):
        bernoulli_from_genocchi(0, Fraction(1))


def test_genocchi_bridge_round_trip():
    for k in range(1, 301):
        oracle = bernoulli_series_oracle(k)
        g = genocchi_theorem(k)
        assert g == genocchi_from_bernoulli(k, oracle)
        assert bernoulli_from_genocchi(k, g) == oracle


def test_genocchi_theorem_rejects_a_non_integer_sum(monkeypatch):
    # 2^(k-1) does not divide k (m-1)! 2^(k-m) for odd k and m >= 2, so
    # one more partition in S(7,4) leaves a remainder.
    k, m = 7, 4
    rows = list(shared_triangle(k).rows)
    rows[k] = rows[k][:m] + (rows[k][m] + 1,) + rows[k][m + 1 :]
    monkeypatch.setattr(
        formulas, "shared_triangle", lambda n: StirlingTriangle(n, tuple(rows[: n + 1]))
    )
    with pytest.raises(ArithmeticError, match=f"G_{k} "):
        genocchi_theorem(k)


def genocchi_theorem_reference(k, row):
    """(-1)^k k sum_m (-1)^m (m-1)!/2^(m-1) S(k,m) as printed, one Fraction per term."""
    return (-1) ** k * k * sum(
        (Fraction((-1) ** m * factorial(m - 1), 2 ** (m - 1)) * row[m] for m in range(1, k + 1)),
        Fraction(0),
    )


def test_genocchi_theorem_equals_its_fraction_sum():
    rows = triangle_build(300).rows
    for k in range(1, 301):
        assert genocchi_theorem(k) == genocchi_theorem_reference(k, rows[k]), k


def test_tangent_numbers_known_values():
    # OEIS A000182, after T_0 = 0.
    known = [0, 1, 2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976]
    assert tangent_numbers(0) == [0]
    assert tangent_numbers(1) == [0, 1]
    assert tangent_numbers(9) == known
    assert tangent_numbers(40)[:10] == known
    with pytest.raises(ValueError):
        tangent_numbers(-1)


def test_bernoulli_from_tangent():
    assert bernoulli_from_tangent(1, 1) == Fraction(1, 6)
    assert bernoulli_from_tangent(2, 2) == Fraction(-1, 30)
    assert bernoulli_from_tangent(3, 16) == Fraction(1, 42)
    with pytest.raises(ValueError):
        bernoulli_from_tangent(0, 0)


def test_brent_harvey_row_equals_oracle_at_every_even_index():
    for n in range(2, 201, 2):
        assert formula_value(FormulaId.BRENT_HARVEY_TANGENT, n) == bernoulli_series_oracle(n), n


def test_tangent_numbers_give_the_genocchi_theorem():
    # G_2k = (-1)^k 2k T_k / 2^(2k-1), against the paper's Stirling sum.
    tangents = tangent_numbers(150)
    for k in range(1, 151):
        g = Fraction((-1) ** k * 2 * k * tangents[k], 1 << (2 * k - 1))
        assert g == genocchi_theorem(2 * k), k


def test_euler_at_zero():
    assert euler_at_zero(1) == Fraction(-1, 2)  # G_2 / 2
    assert euler_at_zero(2) == Fraction(1, 4)  # G_4 / 4
    assert euler_at_zero(3) == Fraction(-1, 2)  # G_6 / 6


def test_all_trusted_formulas_agree_with_oracle():
    limit = 24  # the full sweep to 60 runs in the acceptance suite
    for n in range(limit + 1):
        oracle = bernoulli_series_oracle(n)
        assert bernoulli_higgins(n) == oracle
        assert bernoulli_stirling_single(n) == oracle
        assert bernoulli_gould_double(n) == oracle
        assert bernoulli_stirling_ratio(n) == oracle
        if n >= 2 and n % 2 == 0:
            assert bernoulli_faulhaber_recursion(n // 2) == oracle
            assert bernoulli_double_stirling(n // 2) == oracle


@pytest.mark.parametrize("n", [64, 100])
def test_integer_kernels_agree_with_oracle_at_large_n(n):
    oracle = bernoulli_series_oracle(n)
    assert bernoulli_higgins(n) == oracle
    assert bernoulli_gould_double(n) == oracle
    assert bernoulli_stirling_ratio(n) == oracle
    assert bernoulli_faulhaber_recursion(n // 2) == oracle
    assert bernoulli_stirling_single(n) == oracle
    assert bernoulli_double_stirling(n // 2) == oracle
    assert genocchi_theorem(n) == genocchi_from_bernoulli(n, oracle)


def test_formula_registry_flags():
    untrusted = [fid for fid in FormulaId if not fid.trusted]
    assert untrusted == [FormulaId.TANGENT_DOUBLE_14_AS_PRINTED]
    even_only = {fid for fid in FormulaId if fid.even_only}
    assert even_only == {
        FormulaId.FAULHABER_RECURSION_13,
        FormulaId.TANGENT_DOUBLE_14_AS_PRINTED,
        FormulaId.DOUBLE_STIRLING_15,
        FormulaId.BRENT_HARVEY_TANGENT,
    }
    assert list(REGISTRY) == list(FormulaId)
    for fid, (trusted, even_only, _, _) in REGISTRY.items():
        assert (fid.trusted, fid.even_only) == (trusted, even_only), fid


SWEPT = [fid for fid in FormulaId if bernoulli_sweep(fid, 0) is not None]


def test_higgins_single_gould_and_the_tangent_row_have_sweeps():
    assert SWEPT == [
        FormulaId.HIGGINS_9,
        FormulaId.STIRLING_SINGLE_10,
        FormulaId.GOULD_DOUBLE_11,
        FormulaId.BRENT_HARVEY_TANGENT,
    ]


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 300])
@pytest.mark.parametrize("fid", SWEPT, ids=lambda fid: fid.value)
def test_sweep_yields_the_per_index_value_at_every_applicable_index(fid, limit):
    pairs = list(bernoulli_sweep(fid, limit))
    assert [n for n, _ in pairs] == [n for n in range(limit + 1) if is_applicable(fid, n)]
    for n, value in pairs:
        assert value == formula_bernoulli_value(fid, n), n


def test_registry_row_record_contract():
    row = formulas._Formula(bernoulli_higgins, 6000)
    assert formulas._Formula._fields == (
        "evaluate", "ceiling", "even_only", "trusted", "genocchi", "sweep"
    )
    assert row[1:] == (6000, False, True, False, None)  # sweep defaults to None
    with pytest.raises(AttributeError):
        row.even_only = True
    with pytest.raises(AttributeError):
        row.extra = 1


def test_applicability():
    assert is_applicable(FormulaId.SERIES_ORACLE, 0)
    assert is_applicable(FormulaId.GENOCCHI_THEOREM_16, 1)
    assert not is_applicable(FormulaId.GENOCCHI_THEOREM_16, 0)
    assert not is_applicable(FormulaId.FAULHABER_RECURSION_13, 3)
    assert not is_applicable(FormulaId.FAULHABER_RECURSION_13, 0)
    assert is_applicable(FormulaId.FAULHABER_RECURSION_13, 4)
    assert not is_applicable(FormulaId.HIGGINS_9, -1)
    for fid, (_, _, applicable, rows) in REGISTRY.items():
        assert "".join("+" if is_applicable(fid, n) else "-" for n in range(-1, 9)) == applicable, fid
        # A formula grows the shared triangle to exactly the rows it reads.
        # Each rows column is linear in n, so it extends past n = 8.
        for n in (*range(9), 33, 64):
            if not is_applicable(fid, n):
                continue
            expected = rows[n + 1] if n < 9 else rows[-1] + (n - 8) * (rows[-1] - rows[-2])
            reset_caches()
            formula_value(fid, n)
            assert len(stirling._shared_rows) == expected + 1, (fid, n)


def test_formula_value_dispatch():
    assert formula_value(FormulaId.GENOCCHI_THEOREM_16, 12) == 2073
    assert formula_value(FormulaId.STIRLING_SINGLE_10, 1) == Fraction(-1, 2)
    assert formula_value(FormulaId.FAULHABER_RECURSION_13, 4) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        formula_value(FormulaId.FAULHABER_RECURSION_13, 3)
    for fid, (function, halved) in DIRECT.items():
        for n in (1, 2, 4, 7, 12):
            if not is_applicable(fid, n):
                with pytest.raises(ValueError):
                    formula_value(fid, n)
                continue
            direct = function(n // 2 if halved else n)
            assert formula_value(fid, n) == direct, (fid, n)
            bridged = bernoulli_from_genocchi(n, direct) if function is genocchi_theorem else direct
            assert formula_bernoulli_value(fid, n) == bridged, (fid, n)


def test_formula_bernoulli_value_bridges_genocchi():
    for n in (1, 2, 7, 12):
        assert formula_bernoulli_value(FormulaId.GENOCCHI_THEOREM_16, n) == bernoulli_series_oracle(n)
