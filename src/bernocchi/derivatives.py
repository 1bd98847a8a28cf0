"""Symbolic derivative polynomials for reciprocal exponential expressions.

Writing u = 1/(lambda*e^(alpha*t) - 1), differentiation in t acts on any
polynomial in u through the formal chain rule with du/dt = -alpha*(u + u^2);
the scale parameter lambda enters only through the eventual evaluation
point, never the rule.  For v = 1/(e^t + 1) the corresponding factor is
v^2 - v.  Iterating either rule from the monomial p_0 = x produces the k-th
derivative as a polynomial in the original expression, which is checked
coefficient-wise against closed forms built from Stirling numbers.

The whole validation is a formal polynomial identity in exact rationals;
no transcendental evaluation is involved.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .polynomial import RationalPolynomial, X
from .stirling import shared_triangle

__all__ = [
    "DerivativeRule",
    "reciprocal_expm1_rule",
    "LOGISTIC_RULE",
    "derivative_polynomial",
    "derivative_polynomial_reference",
    "logistic_derivative_polynomial",
    "logistic_derivative_polynomial_reference",
    "genocchi_from_derivatives",
]


class DerivativeRule(NamedTuple):
    """Image of d/dt on the indeterminate: p maps to p' * substitution_factor."""

    substitution_factor: RationalPolynomial

    def iterate(self, k: int, start: RationalPolynomial = X) -> RationalPolynomial:
        """The rule applied k times to start, in integers.

        With the factor F/d and the start s/e (F and s their integer
        numerators), the k-th iterate is q_k / (d^k e) where q_0 = s and
        q_(i+1) = q_i' F, so only the final construction divides.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        f = self.substitution_factor.numerators
        terms = [(j, b) for j, b in enumerate(f) if b]
        q = start.numerators
        for _ in range(k):
            dq = [i * a for i, a in enumerate(q) if i]
            q = [0] * (len(dq) + len(f) - 1) if dq and f else []
            for j, b in terms:
                for i, a in enumerate(dq, j):
                    q[i] += b * a
        return RationalPolynomial(q, self.substitution_factor.denominator**k * start.denominator)


def reciprocal_expm1_rule(alpha: Fraction | int) -> DerivativeRule:
    """Rule for x standing for 1/(lambda*e^(alpha*t) - 1): factor -alpha*(x + x^2)."""
    a = Fraction(alpha)
    return DerivativeRule(RationalPolynomial((0, -a, -a)))


# Rule for x standing for 1/(e^t + 1): factor x^2 - x.
LOGISTIC_RULE = DerivativeRule(RationalPolynomial((0, -1, 1)))


def derivative_polynomial(k: int, alpha: Fraction | int) -> RationalPolynomial:
    """k-th derivative of 1/(lambda*e^(alpha*t) - 1) as a polynomial in itself,
    obtained by iterating the chain rule from p_0 = x."""
    return reciprocal_expm1_rule(alpha).iterate(k)


def derivative_polynomial_reference(k: int, alpha: Fraction | int) -> RationalPolynomial:
    """Closed form (-1)^k alpha^k sum_{m=1..k+1} (m-1)! S(k+1,m) x^m."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = shared_triangle(k + 1)
    scale = Fraction(alpha) ** k * (-1) ** k
    coeffs = [Fraction(0)] + [
        scale * factorial(m - 1) * t.value(k + 1, m) for m in range(1, k + 2)
    ]
    return RationalPolynomial(coeffs)


def logistic_derivative_polynomial(k: int) -> RationalPolynomial:
    """k-th derivative of 1/(e^t + 1) as a polynomial in itself (rule x^2 - x)."""
    return LOGISTIC_RULE.iterate(k)


def logistic_derivative_polynomial_reference(k: int) -> RationalPolynomial:
    """Closed form (-1)^(k+1) sum_{m=1..k+1} (-1)^m (m-1)! S(k+1,m) x^m."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = shared_triangle(k + 1)
    sign = (-1) ** (k + 1)
    coeffs = [Fraction(0)] + [
        sign * (-1) ** m * factorial(m - 1) * t.value(k + 1, m) for m in range(1, k + 2)
    ]
    return RationalPolynomial(coeffs)


def genocchi_from_derivatives(k: int) -> Fraction:
    """G_k = 2k times the (k-1)-th logistic derivative polynomial evaluated at 1/2.

    The evaluation point 1/2 is the t -> 0 limit of 1/(e^t + 1).  With the
    polynomial c/e (c its integer numerators) of degree d,
    2^d e p(1/2) = sum_m c_m 2^(d-m), so 2k times that sum is divided once by
    2^d e.  G_k is an integer, so a remainder signals a bug and raises.
    """
    if k < 1:
        raise ValueError("k must be positive")
    p = logistic_derivative_polynomial(k - 1)
    total = 0
    for c in p.numerators:  # sum_m c_m 2^(d-m), by Horner from c_0
        total = 2 * total + c
    scaled = 2 * k * total
    divisor = p.denominator << p.degree
    value, remainder = divmod(scaled, divisor)
    if remainder:
        raise ArithmeticError(
            f"G_{k} via derivative polynomials came out non-integer: {Fraction(scaled, divisor)}"
        )
    return Fraction(value)
