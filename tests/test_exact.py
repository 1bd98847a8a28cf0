"""Scalar substrate: rationals, factorials, binomials, integer powers."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernocchi.exact import (
    binomial,
    factorial,
    format_rational,
    int_pow,
    parse_rational,
    rat,
)


def choose_by_factorials(n, k):
    """Independent oracle: C(n,k) as the literal factorial ratio."""
    if k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def product_factorial(n):
    """Independent oracle: n! as a direct running product."""
    result = 1
    for i in range(1, n + 1):
        result *= i
    return result


def pow_by_squaring(base, exp):
    """Independent oracle: repeated squaring."""
    result = 1
    while exp:
        if exp & 1:
            result *= base
        base *= base
        exp >>= 1
    return result


def test_rat_reduces():
    assert rat(2, 4) == Fraction(1, 2)


def test_rat_normalizes_sign():
    assert rat(3, -6) == Fraction(-1, 2)
    assert rat(3, -6).denominator == 2


def test_rat_zero():
    assert rat(0, 7) == Fraction(0)
    assert rat(0, 7).denominator == 1


def test_rat_zero_denominator_rejected():
    with pytest.raises(ValueError):
        rat(1, 0)


def test_rat_scaling_invariance():
    for k in (-5, -1, 2, 7):
        assert rat(3, 4) == rat(3 * k, 4 * k)


@given(
    st.integers(-50, 50),
    st.integers(-50, 50).filter(bool),
    st.integers(-50, 50),
    st.integers(-50, 50).filter(bool),
)
def test_rat_addition_matches_cross_multiplication(a, b, c, d):
    assert rat(a, b) + rat(c, d) == rat(a * d + b * c, b * d)


@given(
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=40),
)
def test_field_axioms_sample(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x != 0:
        assert x * (1 / x) == 1


def test_binomial_small_values():
    assert binomial(4, 2) == 6 == choose_by_factorials(4, 2)
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_matches_factorial_oracle():
    for n in range(26):
        for k in range(n + 3):
            assert binomial(n, k) == choose_by_factorials(n, k)


def test_binomial_pascal_rule():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000
    for n in range(30):
        assert factorial(n) == product_factorial(n)


def test_int_pow():
    assert int_pow(0, 0) == 1
    assert int_pow(2, 10) == 1024 == pow_by_squaring(2, 10)
    assert int_pow(-3, 3) == -27
    for base in range(-6, 7):
        for exp in range(12):
            assert int_pow(base, exp) == pow_by_squaring(base, exp)


def test_format_rational():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(17, 510)) == "1/30"


def test_parse_rational_round_trip():
    for value in (Fraction(0), Fraction(-1, 2), Fraction(43867, 798), Fraction(-28820619)):
        assert parse_rational(format_rational(value)) == value


def test_parse_rational_rejects_garbage():
    for text in ("", "1.5", "a/b", "1/–2", "1/0", "1/-2", " 1/2", "1/2\n", "\u0663"):
        with pytest.raises(ValueError):
            parse_rational(text)
