"""Dense rational polynomials: canonical form, evaluation, interpolation."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernocchi.formulas import faulhaber_coefficients
from bernocchi.polynomial import RationalPolynomial, X, interpolate
from test_derivatives import polynomials

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def eval_by_powers(p, v):
    """Independent oracle for Horner evaluation: sum c_i * v^i."""
    return sum((c * Fraction(v) ** i for i, c in enumerate(p.coefficients)), Fraction(0))


def test_trailing_zeros_trimmed():
    assert RationalPolynomial((1, 2, 0, 0)) == RationalPolynomial((1, 2))
    assert RationalPolynomial((0, 0)) == RationalPolynomial()


def test_one_polynomial_has_one_stored_form():
    forms = [
        RationalPolynomial((Fraction(1, 2), 0)),
        RationalPolynomial((1,), 2),
        RationalPolynomial((2,), 4),
        RationalPolynomial((-1,), -2),
    ]
    for p in forms:
        assert (p.numerators, p.denominator) == ((1,), 2)
        assert p == forms[0] and hash(p) == hash(forms[0])
    zero = RationalPolynomial((0, 0), 7)
    assert (zero.numerators, zero.denominator) == ((), 1)


def test_constructor_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalPolynomial((1, 2), 0)


def test_constructor_accepts_what_fraction_accepts():
    p = RationalPolynomial(["1/2", 0.25])
    assert p == RationalPolynomial((Fraction(1, 2), Fraction(1, 4)))
    assert (p.numerators, p.denominator) == ((2, 1), 4)


@given(polynomials)
def test_stored_form_is_canonical(p):
    assert RationalPolynomial(p.numerators, p.denominator) == p
    assert RationalPolynomial(p.coefficients) == p
    assert p.denominator > 0
    assert gcd(p.denominator, *p.numerators) == 1


def test_zero_polynomial_has_no_degree():
    assert RationalPolynomial().degree is None
    assert RationalPolynomial((0,)).degree is None
    assert RationalPolynomial((5,)).degree == 0
    assert RationalPolynomial((0, 0, 1)).degree == 2


def test_evaluation_examples():
    assert RationalPolynomial((0, -1, 1))(Fraction(1, 2)) == Fraction(-1, 4)
    assert X(Fraction(1, 2)) == Fraction(1, 2)
    assert RationalPolynomial()(Fraction(9, 7)) == 0


def test_evaluation_matches_power_sum_oracle():
    p = RationalPolynomial((Fraction(1, 3), -2, 0, 5, Fraction(-7, 11)))
    for v in (0, 1, -1, Fraction(2, 3), Fraction(-5, 4), 10):
        assert p(v) == eval_by_powers(p, v)


def eval_by_fraction_horner(p, v):
    """Independent oracle for the integer evaluation: Horner's rule in Fraction."""
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * Fraction(v) + c
    return acc


@given(polynomials, rationals)
def test_evaluation_matches_fraction_horner(p, v):
    # Covers the zero polynomial and negative and non-integer points.
    assert p(v) == p.evaluate(v) == eval_by_fraction_horner(p, v)


def test_evaluation_matches_fraction_horner_on_faulhaber_tables():
    points = (0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7), Fraction(-5, 64))
    for p in range(40):
        table = faulhaber_coefficients(p)
        for v in points:
            assert table(v) == eval_by_fraction_horner(table, v), (p, v)
    zero = RationalPolynomial()
    for v in points:
        assert zero(v) == 0 and isinstance(zero(v), Fraction)


def test_immutability():
    with pytest.raises(AttributeError):
        X.coefficients = ()


def test_interpolate_recovers_cubic():
    target = RationalPolynomial((7, -2, 0, 1))
    points = [(v, target(v)) for v in range(4)]
    assert interpolate(points) == target


def test_interpolate_with_rational_nodes():
    target = RationalPolynomial((0, Fraction(1, 2), Fraction(1, 4)))
    nodes = (Fraction(-1, 2), 0, Fraction(3, 2))
    assert interpolate([(v, target(v)) for v in nodes]) == target


def test_interpolate_on_decreasing_nodes_keeps_a_positive_denominator():
    # Steps -1, -2, -3: four nodes give the Newton denominator -6 before
    # the constructor normalises its sign.
    for points in ([(3, 9), (2, 4), (1, 1)], [(4, 16), (3, 9), (2, 4), (1, 1)]):
        p = interpolate(points)
        assert p == RationalPolynomial((0, 0, 1)) and p.denominator > 0


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


def newton_interpolate(points):
    """Reference: Newton divided differences, expanded by Horner's rule, in Fraction."""
    xs = [Fraction(x) for x, _ in points]
    newton = [Fraction(y) for _, y in points]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for i in reversed(range(n)):  # coeffs <- coeffs * (t - xs[i]) + newton[i]
        coeffs = [a - xs[i] * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += newton[i]
    return RationalPolynomial(coeffs)


@st.composite
def interpolation_points(draw):
    """0..10 distinct rational nodes (signs and denominators mixed), rational values."""
    size = draw(st.integers(0, 10))
    nodes = draw(st.lists(rationals, min_size=size, max_size=size, unique=True))
    values = draw(st.lists(rationals, min_size=size, max_size=size))
    return list(zip(nodes, values))


@settings(max_examples=60, deadline=None)
@given(interpolation_points())
def test_interpolate_passes_through_every_point(points):
    poly = interpolate(points)
    assert poly.degree is None or poly.degree < len(points)
    for x, y in points:
        assert poly(x) == y


def test_interpolate_matches_newton_reference():
    nodes = (Fraction(-7, 3), -2, Fraction(-1, 2), 0, Fraction(5, 6), 3, Fraction(17, 4))
    points = [(x, Fraction(3 * i * i - 5, 2 * i + 7)) for i, x in enumerate(nodes)]
    assert interpolate(points) == newton_interpolate(points)
    # 25 scattered, unsorted rational nodes: more than the property test draws.
    scattered = [Fraction((37 * i) % 101 - 50, 1 + (5 * i) % 11) for i in range(25)]
    assert len(set(scattered)) == 25 and scattered != sorted(scattered)
    points = [(x, Fraction(3 * i * i - 5, 2 * i + 7)) for i, x in enumerate(scattered)]
    assert interpolate(points) == newton_interpolate(points)
    # Equally spaced nodes, descending by a rational step.
    spaced = [Fraction(7, 3) - i * Fraction(5, 6) for i in range(20)]
    points = [(x, Fraction(3 * i * i - 5, 2 * i + 7)) for i, x in enumerate(spaced)]
    assert interpolate(points) == newton_interpolate(points)
