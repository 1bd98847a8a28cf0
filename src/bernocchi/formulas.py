"""Closed-form Bernoulli and Genocchi number formulas.

Every formula here returns an exact rational.  The ground truth is
:func:`bernoulli_series_oracle`, the classical recurrence obtained from the
generating function x/(e^x - 1); it involves no Stirling numbers and shares
no code path with the formulas it is used to check.

Formula identifiers form a closed set (:class:`FormulaId`).  All are
expected to agree with the oracle except TANGENT_DOUBLE_14_AS_PRINTED,
which reproduces a published double sum verbatim and is flagged untrusted
because its value demonstrably differs from the consensus (1/3 against
B_2 = 1/6 already at index 2).
"""
from __future__ import annotations

import enum
import threading
from collections.abc import Callable
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .polynomial import RationalPolynomial, interpolate
from .stirling import shared_triangle

__all__ = [
    "FormulaId",
    "B0",
    "B1",
    "bernoulli_series_oracle",
    "bernoulli_higgins",
    "bernoulli_stirling_single",
    "bernoulli_gould_double",
    "bernoulli_stirling_ratio",
    "faulhaber_coefficients",
    "bernoulli_faulhaber_recursion",
    "bernoulli_tangent_double_as_printed",
    "bernoulli_double_stirling",
    "genocchi_theorem",
    "tangent_numbers",
    "bernoulli_from_tangent",
    "genocchi_from_bernoulli",
    "bernoulli_from_genocchi",
    "euler_at_zero",
    "is_applicable",
    "formula_value",
    "formula_bernoulli_value",
]

# Named domain constants, used throughout the tests.
B0 = Fraction(1)
B1 = Fraction(-1, 2)


class FormulaId(enum.Enum):
    """Closed identifier set for the formula registry (CLI names, verbatim)."""

    SERIES_ORACLE = "SERIES_ORACLE"
    HIGGINS_9 = "HIGGINS_9"
    STIRLING_SINGLE_10 = "STIRLING_SINGLE_10"
    GOULD_DOUBLE_11 = "GOULD_DOUBLE_11"
    STIRLING_RATIO_12 = "STIRLING_RATIO_12"
    FAULHABER_RECURSION_13 = "FAULHABER_RECURSION_13"
    TANGENT_DOUBLE_14_AS_PRINTED = "TANGENT_DOUBLE_14_AS_PRINTED"
    DOUBLE_STIRLING_15 = "DOUBLE_STIRLING_15"
    GENOCCHI_THEOREM_16 = "GENOCCHI_THEOREM_16"
    BRENT_HARVEY_TANGENT = "BRENT_HARVEY_TANGENT"

    @property
    def trusted(self) -> bool:
        return _REGISTRY[self].trusted

    @property
    def even_only(self) -> bool:
        return _REGISTRY[self].even_only


# B_0, B_1, then grown on demand, kept only as the recurrence's integer
# state: D = lcm of the denominators of the values so far, B_j * D for each
# j, and the last Pascal row C(len(_oracle_scaled), .).  All of it is
# guarded by _oracle_lock, so concurrent growth stays consistent; B_n is
# read back as (B_n * D) / D under the same lock, since D rescales the list.
_oracle_den = 1
_oracle_scaled: list[int] = []
_oracle_row: list[int] = []
_oracle_lock = threading.Lock()


def _reset_oracle() -> None:
    """Forget every oracle value past B_1; D = 2 scales them to 2 and -1."""
    global _oracle_den, _oracle_scaled, _oracle_row
    with _oracle_lock:
        _oracle_den = 2
        _oracle_scaled = [2, -1]
        _oracle_row = [1, 2, 1]


_reset_oracle()


def bernoulli_series_oracle(n: int) -> Fraction:
    """B_n from the generating-function recurrence sum_{j<=m} C(m+1,j) B_j = 0.

    Independent ground truth: uses no Stirling numbers and none of the
    closed-form machinery below.  Each step sums C(m+1,j) * B_j * D in
    integers, D being the common denominator so far, and reduces once:
    B_m = -sum / ((m+1) * D).
    """
    global _oracle_den, _oracle_scaled, _oracle_row
    if n < 0:
        raise ValueError("n must be nonnegative")
    with _oracle_lock:
        while len(_oracle_scaled) <= n:
            m = len(_oracle_scaled)
            _oracle_row = [1, *map(add, _oracle_row, _oracle_row[1:]), 1]
            acc = sum(c * s for c, s in zip(_oracle_row, _oracle_scaled) if s)
            value = Fraction(-acc, (m + 1) * _oracle_den)
            den = value.denominator
            if _oracle_den % den:
                factor = den // gcd(_oracle_den, den)
                _oracle_den *= factor
                _oracle_scaled = [s * factor for s in _oracle_scaled]
            _oracle_scaled.append(value.numerator * (_oracle_den // den))
        return Fraction(_oracle_scaled[n], _oracle_den)


def bernoulli_higgins(n: int) -> Fraction:
    """B_n = sum_{k=0..n} 1/(k+1) * sum_{j=0..k} (-1)^j C(k,j) j^n, with 0^0 = 1.

    The same terms, grouped by j: B_n = sum_{j=0..n} (-1)^j j^n c_j with
    c_j = sum_{k=j..n} C(k,j)/(k+1).  Dividing (j+1) C(k,j+1) = (k-j) C(k,j)
    by k+1 and summing over k = j..n, with the hockey stick
    sum_{k=j..n} C(k,j) = C(n+1,j+1), gives

        c_0 = H_(n+1),  (j+1) c_(j+1) = C(n+1,j+1) - (j+1) c_j.

    Over L = lcm(1..n+1) every e_j = L c_j is an integer:
    e_0 = sum_k L/(k+1) and e_(j+1) = C(n+1,j+1) (L/(j+1)) - e_j, with
    C(n+1,j+1) a running product.  Each index costs n+1 powers and O(n)
    products; the sum is reduced once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    common = lcm(*range(1, n + 2))
    scaled = sum(common // (k + 1) for k in range(n + 1))  # e_j = L c_j
    outer = 1  # C(n+1, j)
    total = 0
    for j in range(n + 1):
        total += (-1) ** j * j**n * scaled
        outer = outer * (n + 1 - j) // (j + 1)
        scaled = outer * (common // (j + 1)) - scaled
    return Fraction(total, common)


def bernoulli_stirling_single(n: int) -> Fraction:
    """B_n = sum_{k=0..n} (-1)^k k!/(k+1) S(n,k).

    Summed in integers over the common denominator lcm(1..n+1), with
    (-1)^k k! carried from one term to the next, and reduced once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    common = lcm(*range(1, n + 2))
    signed_factorial = 1  # (-1)^k k!
    total = 0
    for k, stirling in enumerate(shared_triangle(n).row(n)):
        total += signed_factorial * (common // (k + 1)) * stirling
        signed_factorial *= -(k + 1)
    return Fraction(total, common)


def bernoulli_gould_double(n: int) -> Fraction:
    """B_n by the double sum
    sum_{j=0..n} (-1)^j C(n+1,j+1) n!/(n+j)! I_j,
    I_j = sum_{k=0..j} (-1)^(j-k) C(j,k) k^(n+j), with 0^0 = 1.

    Summed in integers over the common denominator (2n)!/n!, so term j is
    weighted by the integer (2n)!/(n+j)!, and reduced once.  C(n+1, j+1) is
    a running product.

    I_j is the j-th forward difference of t^(n+j) at 0.  Write
    E_j(x) = Delta^j[t^(n+j)](x).  The Leibniz rule for differences,
    Delta(t g)(x) = x Delta g(x) + g(x+1), gives by induction on m
    Delta^m(t g)(x) = x Delta^m g(x) + m Delta^(m-1) g(x+1).  Take m = j+1
    and g = t^(n+j), and use Delta^(j+1) g(x) = E_j(x+1) - E_j(x):

        E_0(x) = x^n,  E_{j+1}(x) = (x+j+1) E_j(x+1) - x E_j(x),  I_j = E_j(0).

    Level j is kept for x = 0..n-j, one entry fewer than the level before,
    and each entry costs two multiplications by small integers and one
    subtraction: no division, no binomial coefficient and no power after
    the first level.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    common = factorial(2 * n) // factorial(n)
    weight = common  # (2n)!/(n+j)!
    outer = n + 1  # C(n+1, j+1)
    values = [x**n for x in range(n + 1)]  # E_j(x) for x = 0..n-j
    total = 0
    for j in range(n + 1):
        if j:
            weight //= n + j
            shifted = map(mul, values[1:], range(j, n + 1))  # (x+j) E_{j-1}(x+1)
            values = list(map(sub, shifted, map(mul, values, range(n + 1 - j))))
        total += (-1) ** j * outer * weight * values[0]
        outer = outer * (n - j) // (j + 2)
    return Fraction(total, common)


def bernoulli_stirling_ratio(n: int) -> Fraction:
    """B_n = sum_{i=0..n} (-1)^i C(n+1,i+1)/C(n+i,i) * S(n+i,i); needs rows up to 2n.

    Since 1/C(n+i,i) = i! n!/(n+i)!, the sum is taken in integers over the
    common denominator (2n)!/n!: term i is weighted by the integer
    (-1)^i C(n+1,i+1) i! (2n)!/(n+i)!, which starts at (n+1) (2n)!/n! and is
    carried to the next term by the factor -(n-i)(i+1) / ((i+2)(n+i+1)).
    Every weight is an integer, so that division is exact.  The result is
    reduced once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    common = factorial(2 * n) // factorial(n)
    rows = shared_triangle(2 * n).rows
    coefficient = (n + 1) * common
    total = 0
    for i in range(n + 1):
        total += coefficient * rows[n + i][i]
        coefficient = coefficient * -(n - i) * (i + 1) // ((i + 2) * (n + i + 1))
    return Fraction(total, common)


def faulhaber_coefficients(p: int) -> RationalPolynomial:
    """Power-sum polynomial for exponent p: coefficients A_0..A_{p+1} with
    sum_{m=1..n} m^p = sum_m A_m n^m for all n >= 0.

    Obtained by exact interpolation of the degree-(p+1) polynomial through
    the p+2 points (n, sum_{m=1..n} m^p) for n = 0..p+1.
    """
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    points = []
    running = 0
    for n in range(p + 2):
        if n:
            running += n**p
        points.append((n, running))
    return interpolate(points)


def bernoulli_faulhaber_recursion(k: int) -> Fraction:
    """B_{2k} = 1/2 - 1/(2k+1) - 2k * sum_{i=1..k-1} A_{2(k-i)}/(2(k-i)+1).

    The A_m are the power-sum coefficients for exponent 2k-1.  That exponent
    choice is a resolved ambiguity: it reproduces B_2 = 1/6, B_4 = -1/30 and
    B_6 = 1/42, while exponent 2k gives 3/10 at k = 2 and is rejected.

    The tail, over the even m = 2..2k-2, is summed in integers: with the
    table's integer numerators a_m over its denominator e and
    L = lcm(3, 5, .., 2k-1), it is sum_m a_m (L/(m+1)), divided once by L*e.
    """
    if k < 1:
        raise ValueError("k must be positive")
    table = faulhaber_coefficients(2 * k - 1)
    common = lcm(*range(3, 2 * k, 2))
    tail = sum(table.numerators[m] * (common // (m + 1)) for m in range(2, 2 * k, 2))
    common *= table.denominator
    return Fraction(1, 2) - Fraction(1, 2 * k + 1) - Fraction(2 * k * tail, common)


def bernoulli_tangent_double_as_printed(k: int) -> Fraction:
    """The printed double sum
    (-1)^(k-1) k / (2^(2(k-1)) (2^(2k)-1)) *
        sum_{i=0..k-1} sum_{l=0..k-i-1} (-1)^(i+l) C(2k,l) (k-i-l)^(2k-1),
    reproduced verbatim.

    This is NOT necessarily B_{2k}: it yields 1/3 at k=1 where B_2 = 1/6.
    The harness classifies the disagreement; we never silently repair a
    printed formula.

    The printed terms are summed grouped by j = i + l, as
    sum_{j<k} (-1)^j (k-j)^(2k-1) sum_{l<=j} C(2k,l), with C(2k,j) and the
    partial row sum carried from one j to the next: the same terms and the
    same value, in another order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    entry = 1  # C(2k, j)
    partial = 0  # sum_{l<=j} C(2k, l)
    inner = 0
    for j in range(k):
        partial += entry
        inner += (-1) ** j * partial * (k - j) ** (2 * k - 1)
        entry = entry * (2 * k - j) // (j + 1)
    prefactor = Fraction((-1) ** (k - 1) * k, (1 << (2 * (k - 1))) * ((1 << (2 * k)) - 1))
    return prefactor * inner


def bernoulli_double_stirling(k: int) -> Fraction:
    """B_{2k} = 1 + sum_{m=1..2k-1} S(2k+1,m+1) S(2k,2k-m) / C(2k,m)
    - 2k/(2k+1) * sum_{m=1..2k} S(2k,m) S(2k+1,2k-m+1) / C(2k,m-1);
    needs rows up to 2k+1.

    Since 1/C(2k,m) = m! (2k-m)!/(2k)!, both sums are (2k)! times integer
    sums F and S over one list of factorials, and
    B_{2k} = ((2k+1)((2k)! + F) - 2k S) / (2k+1)!, reduced once.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rows = shared_triangle(2 * k + 1).rows
    n2 = 2 * k
    fact = [1]  # 0!..(2k+1)!
    for i in range(1, n2 + 2):
        fact.append(fact[-1] * i)
    even, odd = rows[n2], rows[n2 + 1]
    first = sum(odd[m + 1] * even[n2 - m] * fact[m] * fact[n2 - m] for m in range(1, n2))
    second = sum(
        even[m] * odd[n2 - m + 1] * fact[m - 1] * fact[n2 - m + 1] for m in range(1, n2 + 1)
    )
    return Fraction((n2 + 1) * (fact[n2] + first) - n2 * second, fact[n2 + 1])


def genocchi_theorem(k: int) -> Fraction:
    """G_k = (-1)^k k sum_{m=1..k} (-1)^m (m-1)!/2^(m-1) S(k,m).

    Summed in integers as k sum_m (-1)^m (m-1)! 2^(k-m) S(k,m), then
    divided once by 2^(k-1).  Neighbouring coefficients differ by the factor
    -m/2, so the sum is -h_1 by Horner's rule: h_k = S(k,k) and
    h_m = (S(k,m) << (k-m)) - m h_{m+1}, one shift and one multiplication by
    a small integer per term.  The result always reduces to an integer; a
    remainder signals an implementation bug and raises.
    """
    if k < 1:
        raise ValueError("k must be positive")
    row = shared_triangle(k).row(k)
    horner = row[k]  # h_m, from m = k down to 1
    for m in range(k - 1, 0, -1):
        horner = (row[m] << (k - m)) - m * horner
    scaled = (-1) ** (k + 1) * k * horner  # G_k * 2^(k-1)
    value, remainder = divmod(scaled, 1 << (k - 1))
    if remainder:
        raise ArithmeticError(f"G_{k} came out non-integer: {Fraction(scaled, 1 << (k - 1))}")
    return Fraction(value)


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


def bernoulli_from_tangent(k: int, tangent: int) -> Fraction:
    """B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for k >= 1, T_k the k-th tangent number."""
    if k < 1:
        raise ValueError("k must be positive")
    power = 1 << (2 * k)  # 4^k
    return Fraction((-1) ** (k - 1) * 2 * k * tangent, power * (power - 1))


def genocchi_from_bernoulli(n: int, b: Fraction) -> Fraction:
    """G_n = 2(1 - 2^n) B_n for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * (1 - (1 << n)) * b


def bernoulli_from_genocchi(n: int, g: Fraction) -> Fraction:
    """B_n = G_n / (2(1 - 2^n)) for n >= 1 (B_0 is the constant 1, defined separately)."""
    if n < 1:
        raise ValueError("n must be positive (the factor 1 - 2^n vanishes at n = 0)")
    return Fraction(g) / (2 * (1 - (1 << n)))


def euler_at_zero(n: int) -> Fraction:
    """Euler-polynomial value E_{2n-1}(0) = G_{2n} / (2n) for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return genocchi_theorem(2 * n) / (2 * n)


class _Formula(NamedTuple):
    """One registry row.  `evaluate(n)` maps the index n to the function's
    own argument; a `genocchi` value is G_n and moves to the Bernoulli scale
    for comparison."""

    evaluate: Callable[[int], Fraction]
    lowest: int = 0
    even_only: bool = False
    trusted: bool = True
    genocchi: bool = False


# Each entry calls its function by module-global name, so a wrapper put on
# that name (a profiler, a test double) is the one called.
_REGISTRY: dict[FormulaId, _Formula] = {
    FormulaId.SERIES_ORACLE: _Formula(lambda n: bernoulli_series_oracle(n)),
    FormulaId.HIGGINS_9: _Formula(lambda n: bernoulli_higgins(n)),
    FormulaId.STIRLING_SINGLE_10: _Formula(lambda n: bernoulli_stirling_single(n)),
    FormulaId.GOULD_DOUBLE_11: _Formula(lambda n: bernoulli_gould_double(n)),
    FormulaId.STIRLING_RATIO_12: _Formula(lambda n: bernoulli_stirling_ratio(n)),
    FormulaId.FAULHABER_RECURSION_13: _Formula(
        lambda n: bernoulli_faulhaber_recursion(n // 2), lowest=2, even_only=True
    ),
    FormulaId.TANGENT_DOUBLE_14_AS_PRINTED: _Formula(
        lambda n: bernoulli_tangent_double_as_printed(n // 2),
        lowest=2,
        even_only=True,
        trusted=False,
    ),
    FormulaId.DOUBLE_STIRLING_15: _Formula(
        lambda n: bernoulli_double_stirling(n // 2), lowest=2, even_only=True
    ),
    FormulaId.GENOCCHI_THEOREM_16: _Formula(lambda n: genocchi_theorem(n), lowest=1, genocchi=True),
    FormulaId.BRENT_HARVEY_TANGENT: _Formula(
        lambda n: bernoulli_from_tangent(n // 2, tangent_numbers(n // 2)[-1]),
        lowest=2,
        even_only=True,
    ),
}


def is_applicable(formula: FormulaId, n: int) -> bool:
    """Whether the formula is defined at index n (no reinterpreted indices)."""
    entry = _REGISTRY[formula]
    return n >= entry.lowest and not (entry.even_only and n % 2)


def formula_value(formula: FormulaId, n: int) -> Fraction:
    """The formula's own value at index n: B_n for the Bernoulli formulas
    (index n = 2k for the even-only ones), G_n for GENOCCHI_THEOREM_16.

    A Stirling formula takes its rows from the shared triangle; an
    inapplicable n is rejected before any row is built.
    """
    if not is_applicable(formula, n):
        raise ValueError(f"{formula.value} is not applicable at n={n}")
    return _REGISTRY[formula].evaluate(n)


def formula_bernoulli_value(formula: FormulaId, n: int) -> Fraction:
    """The formula's value on the Bernoulli scale, for cross-formula comparison.

    Identical to :func:`formula_value` except that a Genocchi value is
    carried over to B_n through B_n = G_n / (2(1-2^n)).
    """
    value = formula_value(formula, n)
    return bernoulli_from_genocchi(n, value) if _REGISTRY[formula].genocchi else value
