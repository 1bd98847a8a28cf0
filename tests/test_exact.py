"""Scalar substrate: rational serialization, factorials, binomials."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernocchi.exact import binomial, factorial, format_rational, parse_rational


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
