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
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .polynomial import RationalPolynomial, interpolate
from .stirling import shared_triangle
from .tangent import _bernoulli_terms, even_bernoulli_terms, tangent_numbers

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
    "bernoulli_sweep",
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

    @property
    def ceiling(self) -> int:
        return _REGISTRY[self].ceiling


# B_0, B_1, then grown on demand, kept only as the recurrence's integer
# state (D, scaled, row): D = lcm of the denominators of B_0..B_(N-1),
# scaled[j] = B_j * D for j < N, and the Pascal row C(N, .); B_n is read
# back as scaled[n] / D.  Guarded by _oracle_lock; each step builds its
# values apart and replaces the tuple whole, so a step that raises leaves
# the state as it was.
_oracle: tuple[int, list[int], list[int]]
_oracle_lock = threading.Lock()


def _reset_oracle() -> None:
    """Forget every oracle value past B_1; D = 2 scales them to 2 and -1."""
    global _oracle
    with _oracle_lock:
        _oracle = (2, [2, -1], [1, 2, 1])


_reset_oracle()


def bernoulli_series_oracle(n: int) -> Fraction:
    """B_n from the generating-function recurrence sum_{j<=m} C(m+1,j) B_j = 0.

    Independent ground truth: uses no Stirling numbers and none of the
    closed-form machinery below.  Each step sums C(m+1,j) * B_j * D in
    integers, D being the common denominator so far, and reduces once:
    B_m = -sum / ((m+1) * D).
    """
    global _oracle
    if n < 0:
        raise ValueError("n must be nonnegative")
    with _oracle_lock:
        common, scaled, row = _oracle
        while len(scaled) <= n:
            m = len(scaled)
            row = [1, *map(add, row, row[1:]), 1]
            acc = sum(c * s for c, s in zip(row, scaled) if s)
            value = Fraction(-acc, (m + 1) * common)
            den = value.denominator
            if common % den:
                factor = den // gcd(common, den)
                common *= factor
                scaled = [s * factor for s in scaled]
            scaled = [*scaled, value.numerator * (common // den)]
            _oracle = (common, scaled, row)
        return Fraction(scaled[n], common)


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


def _higgins_sweep(max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, B_n) by HIGGINS_9's terms grouped by j, for n = 0..max_n, in one pass.

    With L_n = lcm(1..n+1) and e_j(n) = L_n sum_{k=j..n} C(k,j)/(k+1) as in
    :func:`bernoulli_higgins`, the sum over k gains one term per index:

        e_j(n) = e_j(n-1) (L_n/L_(n-1)) + C(n,j) (L_n/(n+1)),  e_n(n) = L_n/(n+1).

    Three lists carry (-1)^j j^n, C(n,j) and e_j(n) from one index to the
    next; the e_j are rescaled only when L_n grows, that is when n+1 is a
    prime power.  Per index that is one product by the small j per power
    (its sign stays), one Pascal step per binomial and one product per e_j,
    then the sum of (-1)^j j^n e_j(n), reduced once over L_n.  Reads no
    shared input.
    """
    common = 1  # L_(n-1), then L_n
    powers: list[int] = []  # (-1)^j j^n
    row: list[int] = []  # C(n, j)
    scaled: list[int] = []  # e_j(n)
    for n in range(max_n + 1):
        grown = lcm(common, n + 1)
        if grown != common:
            factor = grown // common
            scaled = [e * factor for e in scaled]
            common = grown
        share = common // (n + 1)
        left = 0  # C(n-1, j-1)
        total = 0
        for j in range(n):
            powers[j] *= j
            entry = row[j]
            row[j] = entry + left
            left = entry
            scaled[j] += row[j] * share
            total += powers[j] * scaled[j]
        powers.append((-n) ** n)
        row.append(1)
        scaled.append(share)
        total += powers[n] * share
        yield n, Fraction(total, common)


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


def _single_sweep(max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, B_n) by STIRLING_SINGLE_10 for n = 0..max_n, in one pass.

    The weights w_k = (-1)^k k! (L_n/(k+1)), L_n = lcm(1..n+1), gain one
    entry per index, from a running signed factorial, and are rescaled by
    L_n/L_(n-1) only when L_n grows.  Each B_n is then one dot product
    with row n of the shared triangle over L_n, reduced once.
    """
    common = 1  # L_(n-1), then L_n
    signed_factorial = 1  # (-1)^n n!
    weights: list[int] = []  # w_k for k = 0..n
    for n in range(max_n + 1):
        grown = lcm(common, n + 1)
        if grown != common:
            factor = grown // common
            weights = [w * factor for w in weights]
            common = grown
        if n:
            signed_factorial *= -n
        weights.append(signed_factorial * (common // (n + 1)))
        yield n, Fraction(sum(map(mul, weights, shared_triangle(n).row(n))), common)


def bernoulli_gould_double(n: int) -> Fraction:
    """B_n by the double sum
    sum_{j=0..n} (-1)^j C(n+1,j+1) n!/(n+j)! I_j,
    I_j = sum_{k=0..j} (-1)^(j-k) C(j,k) k^(n+j), with 0^0 = 1.

    I_j is the j-th forward difference of t^(n+j) at 0.  Write
    E_j(x) = Delta^j[t^(n+j)](x).  The Leibniz rule for differences,
    Delta(t g)(x) = x Delta g(x) + g(x+1), gives by induction on m
    Delta^m(t g)(x) = x Delta^m g(x) + m Delta^(m-1) g(x+1).  Take m = j+1
    and g = t^(n+j), and use Delta^(j+1) g(x) = E_j(x+1) - E_j(x):

        E_0(x) = x^n,  E_{j+1}(x) = (x+j+1) E_j(x+1) - x E_j(x),  I_j = E_j(0).

    One list holds level j for x = 0..n-j; level j+1 is written over it with
    x ascending, so entry x+1 still holds E_j(x+1), then the last entry is
    dropped.  Each entry costs two multiplications by small integers and one
    subtraction: no division, no binomial coefficient and no power after
    the first level.  The outer sum is :func:`_gould_sum`, which `verify`'s
    sweep of this row shares.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _gould_sum(n, _gould_levels(n))


def _gould_levels(n: int) -> Iterator[int]:
    """I_j = E_j(0) for j = 0..n, one level of E_j computed per value."""
    values = [x**n for x in range(n + 1)]  # E_j(x) for x = 0..n-j
    yield values[0]
    for j in range(1, n + 1):
        for x in range(n + 1 - j):
            values[x] = (x + j) * values[x + 1] - x * values[x]
        values.pop()
        yield values[0]


def _gould_sum(n: int, inner: Iterable[int]) -> Fraction:
    """sum_{j=0..n} (-1)^j C(n+1,j+1) n!/(n+j)! I_j, with I_j read from inner.

    Summed in integers over the common denominator (2n)!/n!, so term j is
    weighted by the integer (-1)^j C(n+1,j+1) (2n)!/(n+j)!, and reduced once.
    That weight starts at (n+1) (2n)!/n! and is carried to the next term by
    the factor -(n-j)/((j+2)(n+j+1)); the division is exact, since every
    weight is an integer.  The denominator is formed before inner is read,
    so an index past `math.factorial`'s range fails before any level is built.
    """
    common = factorial(2 * n) // factorial(n)
    weight = (n + 1) * common  # (-1)^j C(n+1,j+1) (2n)!/(n+j)!
    total = 0
    for j, value in zip(range(n + 1), inner):
        total += weight * value
        weight = weight * -(n - j) // ((j + 2) * (n + j + 1))
    return Fraction(total, common)


def _gould_sweep(max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, B_n) by GOULD's double sum for n = 0..max_n, in one pass.

    Write I_j(n) = Delta^j[t^(n+j)](0).  The rule of
    :func:`bernoulli_gould_double` at x = 0, with m = j and g = t^(n+j-1),
    gives I_j(n) = j Delta^(j-1) g(1) = j (Delta^(j-1) g(0) + Delta^j g(0)),
    that is I_j(n) = j (I_(j-1)(n) + I_j(n-1)), with I_j(0) = j!.  One list
    holds I_j(n) for j = 0..max_n; each n rewrites it with j ascending, one
    addition and one product by the small integer j per entry.  These are
    the integers j! S(n+j, j), but they are built from factorials alone:
    the sweep reads neither the Stirling triangle nor the oracle.
    """
    levels = [1]  # I_j(0) = j!
    for j in range(1, max_n + 1):
        levels.append(j * levels[-1])
    for n in range(max_n + 1):
        if n:
            levels[0] = 0  # I_0(n) = 0^n
            for j in range(1, max_n + 1):
                levels[j] = j * (levels[j] + levels[j - 1])
        yield n, _gould_sum(n, levels)


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
    L = lcm(3, 5, .., 2k-1), it is t/(L*e) with t = sum_m a_m (L/(m+1)).
    With c = L*e, the whole value is one integer over one denominator,
    ((2k-1) c - 4k(2k+1) t) / (2(2k+1) c), reduced once.
    """
    if k < 1:
        raise ValueError("k must be positive")
    table = faulhaber_coefficients(2 * k - 1)
    common = lcm(*range(3, 2 * k, 2))
    tail = sum(table.numerators[m] * (common // (m + 1)) for m in range(2, 2 * k, 2))
    common *= table.denominator
    return Fraction((2 * k - 1) * common - 4 * k * (2 * k + 1) * tail, 2 * (2 * k + 1) * common)


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
    sums over the products P_j = S(2k+1,j) S(2k,2k+1-j), with
    V_j = j! (2k-j)!: the first is sum_{j=2..2k} P_j V_(j-1) (j = m+1) and
    the second sum_{j=1..2k} P_j V_j (j = 2k-m+1).  So
    B_{2k} = ((2k+1)! + sum_j c_j P_j) / (2k+1)!, reduced once, with the
    weight c_j = (2k+1) V_(j-1) [j >= 2] - 2k V_j.  V_0 = (2k)! and
    V_j = V_(j-1) j / (2k-j+1), an exact division since V_j is an integer.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n2 = 2 * k
    v = factorial(n2)  # V_0
    common = (n2 + 1) * v  # (2k+1)!
    rows = shared_triangle(n2 + 1).rows
    even, odd = rows[n2], rows[n2 + 1]
    total = 0
    for j in range(1, n2 + 1):
        below, v = v, v * j // (n2 + 1 - j)  # V_(j-1), V_j
        weight = (n2 + 1) * below - n2 * v if j > 1 else -n2 * v
        total += weight * (odd[j] * even[n2 + 1 - j])
    return Fraction(common + total, common)


def _genocchi_from_row(k: int, row: tuple[int, ...]) -> int:
    """G_k = (-1)^k k sum_{m=1..k} (-1)^m (m-1)!/2^(m-1) S(k,m).

    Summed in integers from row = S(k,0..k) as k sum_m (-1)^m (m-1)! 2^(k-m)
    S(k,m), then divided once by 2^(k-1).  Neighbouring coefficients differ
    by the factor -m/2, so the sum is -h_1 by Horner's rule: h_k = S(k,k) and
    h_m = (S(k,m) << (k-m)) - m h_{m+1}, one shift and one multiplication by
    a small integer per term.  The result always reduces to an integer; a
    remainder signals an implementation bug and raises.
    """
    horner = row[k]  # h_m, from m = k down to 1
    for m in range(k - 1, 0, -1):
        horner = (row[m] << (k - m)) - m * horner
    scaled = (-1) ** (k + 1) * k * horner  # G_k * 2^(k-1)
    value, remainder = divmod(scaled, 1 << (k - 1))
    if remainder:
        raise ArithmeticError(f"G_{k} came out non-integer: {Fraction(scaled, 1 << (k - 1))}")
    return value


def genocchi_theorem(k: int) -> Fraction:
    """Theorem (16)'s G_k, from row k of the shared triangle."""
    if k < 1:
        raise ValueError("k must be positive")
    return Fraction(_genocchi_from_row(k, shared_triangle(k).row(k)))


def _tangent_sweep(max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, B_n) for the even n = 2..max_n, from one `tangent_numbers(max_n // 2)` call."""
    for n, numerator, denominator in even_bernoulli_terms(max_n):
        yield n, Fraction(numerator, denominator)


def bernoulli_from_tangent(k: int, tangent: int) -> Fraction:
    """B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for k >= 1, T_k the k-th tangent number."""
    if k < 1:
        raise ValueError("k must be positive")
    return Fraction(*_bernoulli_terms(k, tangent))


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
    for comparison.  `ceiling` is the largest index `compute` accepts: a
    cold call there takes about 10 s, or, for a row that reads the shared
    triangle, holds about 0.2 GB of it (README, "CLI").  `sweep(max_n)`,
    where present, yields (n, B_n) for the row's applicable n <= max_n in
    one pass, with its state local to the generator; `verify` reads the row
    through it."""

    evaluate: Callable[[int], Fraction]
    ceiling: int
    even_only: bool = False
    trusted: bool = True
    genocchi: bool = False
    sweep: Callable[[int], Iterator[tuple[int, Fraction]]] | None = None


# Each entry calls its function by module-global name, so a wrapper put on
# that name is the one called: the tracer in perfbench/traced.py times each
# kernel that way.  Tests plant a row's value by replacing its whole entry,
# sweep included (the replace_row fixture in tests/conftest.py).
_REGISTRY: dict[FormulaId, _Formula] = {
    FormulaId.SERIES_ORACLE: _Formula(lambda n: bernoulli_series_oracle(n), 1800),
    FormulaId.HIGGINS_9: _Formula(
        lambda n: bernoulli_higgins(n), 6000, sweep=lambda max_n: _higgins_sweep(max_n)
    ),
    FormulaId.STIRLING_SINGLE_10: _Formula(
        lambda n: bernoulli_stirling_single(n), 1000, sweep=lambda max_n: _single_sweep(max_n)
    ),
    FormulaId.GOULD_DOUBLE_11: _Formula(
        lambda n: bernoulli_gould_double(n), 2000, sweep=lambda max_n: _gould_sweep(max_n)
    ),
    # Reads the triangle to row 2n.
    FormulaId.STIRLING_RATIO_12: _Formula(lambda n: bernoulli_stirling_ratio(n), 500),
    FormulaId.FAULHABER_RECURSION_13: _Formula(
        lambda n: bernoulli_faulhaber_recursion(n // 2), 2000, even_only=True
    ),
    FormulaId.TANGENT_DOUBLE_14_AS_PRINTED: _Formula(
        lambda n: bernoulli_tangent_double_as_printed(n // 2),
        10000,
        even_only=True,
        trusted=False,
    ),
    FormulaId.DOUBLE_STIRLING_15: _Formula(
        lambda n: bernoulli_double_stirling(n // 2), 1000, even_only=True
    ),
    FormulaId.GENOCCHI_THEOREM_16: _Formula(lambda n: genocchi_theorem(n), 1000, genocchi=True),
    FormulaId.BRENT_HARVEY_TANGENT: _Formula(
        lambda n: bernoulli_from_tangent(n // 2, tangent_numbers(n // 2)[-1]),
        4400,
        even_only=True,
        sweep=lambda max_n: _tangent_sweep(max_n),
    ),
}


def is_applicable(formula: FormulaId, n: int) -> bool:
    """Whether the formula is defined at index n (no reinterpreted indices): from 2 for an
    even-only row, whose kernel takes k = n/2 >= 1, from 1 for a Genocchi row (1 - 2^0 = 0)."""
    entry = _REGISTRY[formula]
    if entry.even_only:
        return n >= 2 and n % 2 == 0
    return n >= (1 if entry.genocchi else 0)


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


def bernoulli_sweep(formula: FormulaId, max_n: int) -> Iterator[tuple[int, Fraction]] | None:
    """The row's (n, B_n) pairs for its applicable n <= max_n, in one pass,
    or None when the row has no sweep.

    Each pair equals (n, formula_bernoulli_value(formula, n)).  The
    generator keeps its state to itself; nothing is computed until it is
    first advanced.  A negative max_n raises at the call, for every row.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    sweep = _REGISTRY[formula].sweep
    return None if sweep is None else sweep(max_n)
