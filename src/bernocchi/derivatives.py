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

import threading
from fractions import Fraction
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


def _factorial_stirling_terms(k: int) -> list[int]:
    """(m-1)! S(k+1, m) for m = 1..k+1, with (m-1)! carried as a running product."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    terms, f = [], 1
    for m, s in enumerate(shared_triangle(k + 1).row(k + 1)[1:], 1):
        terms.append(f * s)
        f *= m
    return terms


def derivative_polynomial_reference(k: int, alpha: Fraction | int) -> RationalPolynomial:
    """Closed form (-1)^k alpha^k sum_{m=1..k+1} (m-1)! S(k+1,m) x^m.

    With alpha = a/b, the numerators (-a)^k (m-1)! S(k+1,m) are integers
    over the single denominator b^k, reduced once by the constructor.
    """
    terms = _factorial_stirling_terms(k)
    a = Fraction(alpha)
    scale = (-a.numerator) ** k
    return RationalPolynomial([0, *(scale * t for t in terms)], a.denominator**k)


def logistic_derivative_polynomial(k: int) -> RationalPolynomial:
    """k-th derivative of 1/(e^t + 1) as a polynomial in itself (rule x^2 - x)."""
    return LOGISTIC_RULE.iterate(k)


def logistic_derivative_polynomial_reference(k: int) -> RationalPolynomial:
    """Closed form (-1)^(k+1) sum_{m=1..k+1} (-1)^m (m-1)! S(k+1,m) x^m, in integers."""
    terms = _factorial_stirling_terms(k)
    return RationalPolynomial([0, *((-1) ** (k + 1 + m) * t for m, t in enumerate(terms, 1))])


# G_1..G_k as found so far, and the iterate they were last read off,
# LOGISTIC_RULE.iterate(k - 1).  Iterate k is the rule applied once to
# iterate k-1, so reaching G_n costs one step per index not yet reached.
# Only the last iterate is kept: iterate k holds k+2 integers of about
# k log2 k bits each.  Both are guarded by _genocchi_lock and change
# together, so a step that raises leaves them as they were.
_genocchi_values: list[Fraction] = []
_genocchi_last = X
_genocchi_lock = threading.Lock()


def _reset_genocchi() -> None:
    """Forget every value past G_1 = 2 p_0(1/2) = 1, and go back to p_0 = x."""
    global _genocchi_values, _genocchi_last
    with _genocchi_lock:
        _genocchi_values = [Fraction(1)]
        _genocchi_last = X


_reset_genocchi()


def genocchi_from_derivatives(k: int) -> Fraction:
    """G_k = 2k times the (k-1)-th logistic derivative polynomial evaluated at 1/2.

    The evaluation point 1/2 is the t -> 0 limit of 1/(e^t + 1), and
    p(1/2) is evaluated in integers and reduced once by
    RationalPolynomial.__call__.  The iterates are grown in one pass and
    memoised with their values (see _genocchi_values).  G_j is an integer, so
    a denominator other than 1 signals a bug and raises, naming G_j.
    """
    global _genocchi_last
    if k < 1:
        raise ValueError("k must be positive")
    with _genocchi_lock:
        while len(_genocchi_values) < k:
            j = len(_genocchi_values) + 1
            p = LOGISTIC_RULE.iterate(1, _genocchi_last)
            value = 2 * j * p(Fraction(1, 2))
            if value.denominator != 1:
                raise ArithmeticError(f"G_{j} via derivative polynomials came out non-integer: {value}")
            _genocchi_last = p
            _genocchi_values.append(value)
        return _genocchi_values[k - 1]
