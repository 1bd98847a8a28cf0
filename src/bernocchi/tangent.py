"""The tangent numbers, and the Bernoulli numbers B_2k they give, in integers.

This module computes with ``int`` alone and imports no other library module
and not ``fractions``, so ``table bernoulli`` prints B_0..B_n with no
rational type loaded: it reduces each (p, q) pair once, as it prints it.
``formulas`` re-imports :func:`tangent_numbers` and wraps the same terms in
``Fraction`` for the BRENT_HARVEY_TANGENT registry row.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

__all__ = ["tangent_numbers", "even_bernoulli_terms"]


def tangent_numbers(k: int) -> list[int]:
    """T_0..T_k, where tan x = sum_j T_j x^(2j-1)/(2j-1)! (so T_0 = 0, T_1 = 1).

    The in-place integer recurrence of R. P. Brent and D. Harvey, "Fast
    computation of Bernoulli, Tangent and Secant numbers" (arXiv:1108.0286):
    start from T_j = (j-1)! and, for i = 2..k, set
    T_j = (j-i) T_{j-1} + (j-i+2) T_j for j = i..k in increasing order.  Each
    of the ~k^2/2 steps multiplies big integers by small ones only.  Reads
    neither the Stirling triangle nor the oracle, and keeps no memo.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tangents = [0, 1][: k + 1]
    for j in range(2, k + 1):
        tangents.append((j - 1) * tangents[j - 1])
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            tangents[j] = (j - i) * tangents[j - 1] + (j - i + 2) * tangents[j]
    return tangents


def _bernoulli_terms(k: int, tangent: int) -> tuple[int, int]:
    """(p, q) with B_2k = p/q and q > 0, not reduced, for k >= 1 and T_k the
    k-th tangent number: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    power = 1 << (2 * k)  # 4^k
    numerator = 2 * k * tangent
    return numerator if k & 1 else -numerator, power * (power - 1)


def even_bernoulli_terms(max_n: int) -> Iterator[tuple[int, int, int]]:
    """(n, p, q) with B_n = p/q and q > 0, not reduced, for the even
    n = 2..max_n, from one `tangent_numbers(max_n // 2)` call."""
    tangents = tangent_numbers(max_n // 2)
    for k in range(1, max_n // 2 + 1):
        yield 2 * k, *_bernoulli_terms(k, tangents[k])
