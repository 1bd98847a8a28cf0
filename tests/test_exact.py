"""Scalar substrate: exact rationals and their serialization."""
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from bernocchi.exact import format_rational


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


def test_format_rational():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(17, 510)) == "1/30"
    for value in (Fraction(0), Fraction(-1, 2), Fraction(43867, 798), Fraction(-28820619)):
        assert Fraction(format_rational(value)) == value

