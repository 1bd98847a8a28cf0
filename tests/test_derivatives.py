"""Derivative polynomials of reciprocal exponentials, checked two ways."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernocchi import derivatives, reset_caches
from bernocchi.derivatives import (
    LOGISTIC_RULE,
    DerivativeRule,
    derivative_polynomial,
    derivative_polynomial_reference,
    genocchi_from_derivatives,
    logistic_derivative_polynomial,
    logistic_derivative_polynomial_reference,
    reciprocal_expm1_rule,
)
from bernocchi.formulas import genocchi_theorem
from bernocchi.polynomial import RationalPolynomial, X
from bernocchi.stirling import triangle_build

ALPHAS = (1, 2, Fraction(1, 2))


def test_zeroth_derivative_is_identity():
    for alpha in ALPHAS:
        assert derivative_polynomial(0, alpha) == X
    assert logistic_derivative_polynomial(0) == X


def test_first_derivatives():
    assert derivative_polynomial(1, 1) == RationalPolynomial((0, -1, -1))  # -x - x^2
    assert logistic_derivative_polynomial(1) == RationalPolynomial((0, -1, 1))  # x^2 - x


def test_second_derivatives():
    assert derivative_polynomial(2, 1) == RationalPolynomial((0, 1, 3, 2))
    assert logistic_derivative_polynomial(2) == RationalPolynomial((0, 1, -3, 2))


def chain_rule(p, factor):
    """Reference: p' * factor, one Fraction per coefficient."""
    dp = [i * c for i, c in enumerate(p.coefficients)][1:]
    f = factor.coefficients
    product = [Fraction(0)] * (len(dp) + len(f))
    for i, a in enumerate(dp):
        for j, b in enumerate(f):
            product[i + j] += a * b
    return RationalPolynomial(product)


def test_rule_application_is_chain_rule():
    p = RationalPolynomial((0, -1, 1))
    assert LOGISTIC_RULE.iterate(1, p) == chain_rule(p, RationalPolynomial((0, -1, 1)))


def test_rule_matches_stirling_closed_form():
    for k in range(13):
        for alpha in ALPHAS:
            assert derivative_polynomial(k, alpha) == derivative_polynomial_reference(k, alpha)
        assert logistic_derivative_polynomial(k) == logistic_derivative_polynomial_reference(k)


def test_degree_and_constant_term():
    for k in range(13):
        p = derivative_polynomial(k, 2)
        q = logistic_derivative_polynomial(k)
        assert p.degree == k + 1
        assert q.degree == k + 1
        assert p.coefficient(0) == 0
        assert q.coefficient(0) == 0


def test_alpha_scaling():
    for k in range(10):
        base = derivative_polynomial(k, 1)
        for alpha in (2, Fraction(1, 2), Fraction(-3, 7)):
            scaled = RationalPolynomial([Fraction(alpha) ** k * c for c in base.coefficients])
            assert derivative_polynomial(k, alpha) == scaled


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
polynomials = st.lists(rationals, max_size=5).map(RationalPolynomial)


@given(polynomials, polynomials, st.integers(min_value=0, max_value=6))
def test_iterate_matches_fraction_loop(factor, start, k):
    # Covers zero factors and starts, negative and non-integer content.
    expected = start
    for _ in range(k):
        expected = chain_rule(expected, factor)
    assert DerivativeRule(factor).iterate(k, start) == expected


def test_rule_record_contract():
    assert DerivativeRule._fields == ("substitution_factor",)
    with pytest.raises(AttributeError):
        LOGISTIC_RULE.substitution_factor = X
    with pytest.raises(AttributeError):
        LOGISTIC_RULE.extra = X


def test_rule_iterate_rejects_negative():
    with pytest.raises(ValueError):
        reciprocal_expm1_rule(1).iterate(-1)


def test_genocchi_from_derivatives_examples():
    assert genocchi_from_derivatives(1) == 1  # 2 * (1/2)
    assert genocchi_from_derivatives(2) == -1  # 4 * (1/4 - 1/2)
    assert genocchi_from_derivatives(6) == -3


def test_genocchi_from_derivatives_matches_theorem():
    for k in range(1, 16):  # the sweep to 30 runs in the acceptance suite
        assert genocchi_from_derivatives(k) == genocchi_theorem(k)


@pytest.fixture
def cold_genocchi_memo():
    """A cold derivative-route memo, reset again afterwards so that no test reads another's values."""
    reset_caches()
    yield
    reset_caches()


def test_genocchi_from_derivatives_raises_on_a_remainder(monkeypatch, cold_genocchi_memo):
    assert genocchi_from_derivatives(6) == -3  # the memo now holds iterate 5
    good = DerivativeRule.iterate

    def off_by_one(rule, k, start=X):
        *low, lead = good(rule, k, start).coefficients
        return RationalPolynomial([*low, lead + 1])  # adds 2k/2^d to G_k

    monkeypatch.setattr(DerivativeRule, "iterate", off_by_one)
    with pytest.raises(ArithmeticError, match="G_7 "):
        genocchi_from_derivatives(7)
    monkeypatch.undo()
    # The failed step left the memo as it was.
    assert len(derivatives._genocchi_values) == 6
    assert derivatives._genocchi_last == logistic_derivative_polynomial(5)
    assert genocchi_from_derivatives(7) == genocchi_theorem(7)


def test_genocchi_memo_grown_in_chunks_after_reset_equals_one_cold_call(cold_genocchi_memo):
    genocchi_from_derivatives(120)
    cold = [genocchi_from_derivatives(k) for k in range(1, 121)]
    reset_caches()
    assert (derivatives._genocchi_values, derivatives._genocchi_last) == ([1], X)
    assert [genocchi_from_derivatives(k) for k in range(1, 41)] == cold[:40]
    assert [genocchi_from_derivatives(k) for k in range(41, 121)] == cold[40:]
    assert derivatives._genocchi_values == cold
    assert derivatives._genocchi_last == logistic_derivative_polynomial(119)


@pytest.mark.parametrize("order", [range(1, 61), range(60, 0, -1)], ids=["ascending", "descending"])
def test_genocchi_memo_equals_one_shot_iterates(cold_genocchi_memo, order):
    half = Fraction(1, 2)
    for k in order:
        assert genocchi_from_derivatives(k) == 2 * k * logistic_derivative_polynomial(k - 1)(half)


def closed_form_reference(k, alpha):
    """(-1)^k alpha^k sum_m (m-1)! S(k+1,m) x^m, one Fraction per term."""
    s = triangle_build(k + 1)
    a = Fraction(alpha)
    return RationalPolynomial(
        [0] + [(-1) ** k * a**k * factorial(m - 1) * s.value(k + 1, m) for m in range(1, k + 2)]
    )


def logistic_closed_form_reference(k):
    """(-1)^(k+1) sum_m (-1)^m (m-1)! S(k+1,m) x^m, one Fraction per term."""
    s = triangle_build(k + 1)
    sign = (-1) ** (k + 1)
    return RationalPolynomial(
        [0] + [Fraction(sign * (-1) ** m * factorial(m - 1) * s.value(k + 1, m)) for m in range(1, k + 2)]
    )


def test_integer_closed_forms_equal_the_fraction_transcriptions():
    for k in range(31):
        for alpha in (1, 2, Fraction(1, 2), Fraction(-3, 7)):  # -3/7 checks the sign of (-a)^k
            assert derivative_polynomial_reference(k, alpha) == closed_form_reference(k, alpha)
        assert logistic_derivative_polynomial_reference(k) == logistic_closed_form_reference(k)

