"""Dense rational polynomials: derivative, evaluation, interpolation."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernocchi.polynomial import RationalPolynomial, X, interpolate


def eval_by_powers(p, v):
    """Independent oracle for Horner evaluation: sum c_i * v^i."""
    return sum((c * Fraction(v) ** i for i, c in enumerate(p.coefficients)), Fraction(0))


def test_trailing_zeros_trimmed():
    assert RationalPolynomial((1, 2, 0, 0)) == RationalPolynomial((1, 2))
    assert RationalPolynomial((0, 0)).is_zero()


def test_zero_polynomial_has_no_degree():
    assert RationalPolynomial().degree is None
    assert RationalPolynomial((0,)).degree is None
    assert RationalPolynomial((5,)).degree == 0
    assert (X * X).degree == 2


def test_derivative_examples():
    assert (X * X - X).derivative() == RationalPolynomial((-1, 2))
    assert RationalPolynomial((5,)).derivative().is_zero()
    assert (Fraction(1, 3) * X * X * X).derivative() == X * X


def test_derivative_power_rule():
    for n in range(1, 31):
        monomial = RationalPolynomial([0] * n + [1])
        expected = RationalPolynomial([0] * (n - 1) + [n])
        assert monomial.derivative() == expected


def test_derivative_drops_degree_by_one():
    p = RationalPolynomial((3, 0, Fraction(1, 2), 7))
    assert p.derivative().degree == p.degree - 1


def test_evaluation_examples():
    assert (X * X - X)(Fraction(1, 2)) == Fraction(-1, 4)
    assert X(Fraction(1, 2)) == Fraction(1, 2)
    assert RationalPolynomial()(Fraction(9, 7)) == 0


def test_evaluation_matches_power_sum_oracle():
    p = RationalPolynomial((Fraction(1, 3), -2, 0, 5, Fraction(-7, 11)))
    for v in (0, 1, -1, Fraction(2, 3), Fraction(-5, 4), 10):
        assert p(v) == eval_by_powers(p, v)


def test_arithmetic():
    p = X * X - X
    q = 2 * X + RationalPolynomial((1,))
    assert p + q == RationalPolynomial((1, 1, 1))
    assert p - p == RationalPolynomial()
    assert p * RationalPolynomial() == RationalPolynomial()
    assert (X + RationalPolynomial((1,))) * (X - RationalPolynomial((1,))) == X * X - RationalPolynomial((1,))


def test_immutability():
    with pytest.raises(AttributeError):
        X.coefficients = ()


def test_interpolate_recovers_cubic():
    target = X * X * X - 2 * X + RationalPolynomial((7,))
    points = [(v, target(v)) for v in range(4)]
    assert interpolate(points) == target


def test_interpolate_with_rational_nodes():
    target = Fraction(1, 4) * X * X + Fraction(1, 2) * X
    nodes = (Fraction(-1, 2), 0, Fraction(3, 2))
    assert interpolate([(v, target(v)) for v in nodes]) == target


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


def newton_interpolate(points):
    """Reference: Newton divided differences and basis products in Fraction."""
    xs = [Fraction(x) for x, _ in points]
    newton = [Fraction(y) for _, y in points]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - j])
    result = RationalPolynomial()
    basis = RationalPolynomial((1,))
    for i in range(n):
        result = result + newton[i] * basis
        basis = basis * RationalPolynomial((-xs[i], 1))
    return result


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


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
    assert poly.is_zero() or poly.degree < len(points)
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
