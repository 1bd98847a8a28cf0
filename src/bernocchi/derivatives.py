"""Symbolic derivative polynomials for reciprocal exponential expressions.

Writing u = 1/(lambda*e^(alpha*t) - 1), differentiation in t acts on any
polynomial in u through the formal chain rule with du/dt = -alpha*(u + u^2);
the scale parameter lambda enters only through the eventual evaluation
point, never the rule.  For v = 1/(e^t + 1) the corresponding factor is
v^2 - v.  Iterating either rule from the monomial p_0 = x produces the k-th
derivative as a polynomial in the original expression, which is checked
coefficient-wise against closed forms built from Stirling numbers.

Each step q <- q' F runs over integer numerators (_step).  The module
functions keep the last iterate they grew, with its rule and k, and
continue from it when asked for the same rule at the same or a larger k;
genocchi_from_derivatives reads G_k off logistic iterate k-1, grown and
kept the same way.

The whole validation is a formal polynomial identity in exact rationals;
no transcendental evaluation is involved.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import NamedTuple, Sequence

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


def _step(q: Sequence[int], f: Sequence[int]) -> list[int]:
    """Numerators of q' F from those of q and F: the rule applied once, in integers."""
    dq = [i * a for i, a in enumerate(q) if i]
    out = [0] * (len(dq) + len(f) - 1) if dq and f else []
    for j, b in enumerate(f):
        if b:
            for i, a in enumerate(dq, j):
                out[i] += b * a
    return out


class DerivativeRule(NamedTuple):
    """Image of d/dt on the indeterminate: p maps to p' * substitution_factor."""

    substitution_factor: RationalPolynomial

    def iterate(self, k: int, start: RationalPolynomial = X) -> RationalPolynomial:
        """The rule applied k times to start, in integers.

        With the factor F/d and the start s/e (F and s their integer
        numerators), the k-th iterate is q_k / (d^k e) where q_0 = s and
        q_(i+1) = q_i' F, so only the final construction divides.  Each call
        starts again from start, where derivative_polynomial and
        logistic_derivative_polynomial continue from the kept iterate.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        f = self.substitution_factor.numerators
        q = start.numerators
        for _ in range(k):
            q = _step(q, f)
        return RationalPolynomial(q, self.substitution_factor.denominator**k * start.denominator)


def reciprocal_expm1_rule(alpha: Fraction | int) -> DerivativeRule:
    """Rule for x standing for 1/(lambda*e^(alpha*t) - 1): factor -alpha*(x + x^2)."""
    a = Fraction(alpha)
    return DerivativeRule(RationalPolynomial((0, -a, -a)))


# Rule for x standing for 1/(e^t + 1): factor x^2 - x.
LOGISTIC_RULE = DerivativeRule(RationalPolynomial((0, -1, 1)))


# The last iterate grown from p_0 = x, as (rule, k, q): q the integer
# numerators of the rule applied k times to x, over d^k with d the
# denominator of the rule's factor.  Guarded by _iterate_lock and replaced
# whole only once a call has its result, so a step or a check that raises
# leaves it as it was.  It is the module's one memo: iterate k holds k+2
# integers of about k log2 k bits each.
_iterate: tuple[DerivativeRule, int, Sequence[int]]
_iterate_lock = threading.Lock()


def _grown(rule: DerivativeRule, k: int) -> Sequence[int]:
    """The numerators of the rule applied k times to x, one step at a time
    from the kept iterate when it holds the same rule at some k' <= k, and
    from x otherwise.  The caller holds _iterate_lock and keeps the result."""
    kept, reached, q = _iterate
    if kept != rule or reached > k:
        reached, q = 0, X.numerators
    f = rule.substitution_factor.numerators
    for _ in range(reached, k):
        q = _step(q, f)
    return q


def _kept_iterate(rule: DerivativeRule, k: int) -> RationalPolynomial:
    """rule.iterate(k), continued from the kept iterate, which it then replaces."""
    global _iterate
    if k < 0:
        raise ValueError("k must be nonnegative")
    with _iterate_lock:
        q = _grown(rule, k)
        _iterate = (rule, k, q)
    return RationalPolynomial(q, rule.substitution_factor.denominator**k)


def derivative_polynomial(k: int, alpha: Fraction | int) -> RationalPolynomial:
    """k-th derivative of 1/(lambda*e^(alpha*t) - 1) as a polynomial in itself,
    obtained by iterating the chain rule from p_0 = x.

    Continues from the kept iterate when it holds the same alpha at some
    k' <= k, so k = 0, 1, 2, ... in turn costs one step each; any other
    order costs at most k steps, as iterating from x does.
    """
    return _kept_iterate(reciprocal_expm1_rule(alpha), k)


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
    """k-th derivative of 1/(e^t + 1) as a polynomial in itself (rule x^2 - x),
    continued from the kept iterate as derivative_polynomial is."""
    return _kept_iterate(LOGISTIC_RULE, k)


def logistic_derivative_polynomial_reference(k: int) -> RationalPolynomial:
    """Closed form (-1)^(k+1) sum_{m=1..k+1} (-1)^m (m-1)! S(k+1,m) x^m, in integers."""
    terms = _factorial_stirling_terms(k)
    return RationalPolynomial([0, *((-1) ** (k + 1 + m) * t for m, t in enumerate(terms, 1))])


def _reset_iterate() -> None:
    """Keep p_0 = x of the logistic rule, forgetting any later iterate."""
    global _iterate
    with _iterate_lock:
        _iterate = (LOGISTIC_RULE, 0, X.numerators)


_reset_iterate()


def genocchi_from_derivatives(k: int) -> Fraction:
    """G_k = 2k times the (k-1)-th logistic derivative polynomial evaluated at 1/2.

    The evaluation point 1/2 is the t -> 0 limit of 1/(e^t + 1).  With
    c_0..c_d the integer numerators of iterate k-1, p(1/2) is
    sum_i c_i 2^(d-i) / 2^d, so G_k = 2k sum_i c_i 2^(d-i) / 2^d is formed
    in integers by shifts and divided once.  The iterate is continued from
    the kept one as logistic_derivative_polynomial(k - 1) is, and replaces
    it only once G_k is found: G_k is an integer, so a remainder signals a
    bug, raises naming G_k and leaves the kept iterate as it was.
    """
    global _iterate
    if k < 1:
        raise ValueError("k must be positive")
    with _iterate_lock:
        q = _grown(LOGISTIC_RULE, k - 1)
        d = len(q) - 1
        scaled = 2 * k * sum(c << (d - i) for i, c in enumerate(q))
        value, remainder = divmod(scaled, 1 << d)
        if remainder:
            raise ArithmeticError(
                f"G_{k} via derivative polynomials came out non-integer: {Fraction(scaled, 1 << d)}"
            )
        _iterate = (LOGISTIC_RULE, k - 1, q)
    return Fraction(value)
