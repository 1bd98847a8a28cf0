"""Dense univariate polynomials over exact rationals."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Sequence

__all__ = ["RationalPolynomial", "X", "interpolate"]


def _integer_form(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(e, s) with values = s/e: e the lcm of the denominators, s integers.

    All-int input is returned as it is, in a new list, over e = 1.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    if all(type(v) is int for v in values):
        return 1, values
    e = lcm(*(v.denominator for v in values))
    return e, [v.numerator * (e // v.denominator) for v in values]


class RationalPolynomial:
    """Immutable polynomial; coefficient i of x**i is numerators[i] / denominator.

    Canonical form: integer numerators, denominator > 0, gcd(denominator,
    *numerators) == 1 and trailing zeros trimmed, so == and hash are
    structural.  The zero polynomial is () over 1, of degree ``None``.
    ``coefficients`` builds the reduced ``Fraction``s on each access.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coefficients: Iterable[Fraction | int] = (), denominator: int = 1):
        """The polynomial with coefficients c_i / denominator, each c_i anything Fraction takes."""
        den, nums = _integer_form(coefficients)
        den *= denominator
        if not den:
            raise ZeroDivisionError("RationalPolynomial denominator is zero")
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(n // g for n in nums))
        object.__setattr__(self, "denominator", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def degree(self) -> int | None:
        return len(self.numerators) - 1 if self.numerators else None

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.numerators):
            return Fraction(self.numerators[i], self.denominator)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return (self.numerators, self.denominator) == (other.numerators, other.denominator)

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __call__(self, v: Fraction | int) -> Fraction:
        """Exact evaluation at v = a/b, in integers, reduced once.

        With d the degree, p(v) = sum_i c_i a^i b^(d-i) / (denominator b^d).
        Horner's rule over the numerators c_i builds that sum as
        acc <- acc*a + c_i b^(d-i), i = d..0, carrying the power of b.
        """
        v = Fraction(v)
        a, b = v.numerator, v.denominator
        acc, scale = 0, 1  # scale = b^(d-i)
        for c in reversed(self.numerators):
            acc = acc * a + c * scale
            scale *= b
        # scale ends at b^(d+1): acc * b cancels the extra factor, and the
        # zero polynomial (no numerators) gives 0 / denominator.
        return Fraction(acc * b, self.denominator * scale)

    evaluate = __call__

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coefficients)!r})"


X = RationalPolynomial((0, 1))


def interpolate(points: Sequence[tuple[Fraction | int, Fraction | int]]) -> RationalPolynomial:
    """Unique polynomial of degree < len(points) through the given points.

    Newton form over one common denominator, in integers throughout.
    Nodes are scaled to integers X_i = d*x_i and values to Y_i = e*y_i
    (d, e the lcms of the denominators).  Level j of the divided
    differences is kept multiplied by scale_j = scale_{j-1} * step_j, step_j
    the lcm of its gaps X_{i+j} - X_i, so each entry is
    (next - this) * (step_j // gap), an integer.  Horner's rule in the
    Newton basis, acc <- acc*(t - X_j) + top_j * (scale_N / scale_j), gives
    the integer polynomial scale_N * e * p(t/d), so coefficient m of the
    result is acc_m d^m / (scale_N e); integer nodes (d = 1) skip that
    rescale, and integer nodes and values are used without a copy.  Each
    Horner step updates acc in place from the constant term up, saving
    entry i before it is overwritten for use at entry i+1.  The abscissas
    must be pairwise distinct.

    On equally spaced nodes every gap of level j equals X_j - X_0, which is
    taken as step_j, so the levels are plain forward differences and no
    gaps are formed; on the consecutive integers 0..N, scale_N / scale_j is
    N!/j!.  On scattered rational nodes scale_N grows faster than the lcm
    of a Lagrange form would.
    """
    d, nodes = _integer_form([x for x, _ in points])
    e, level = _integer_form([y for _, y in points])
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation abscissas must be distinct")

    # tops[j] = f[X_0..X_j] * scale_j, the leading entry of level j.
    tops, steps = level[:1], [1]
    equally_spaced = len(set(map(sub, nodes[1:], nodes))) == 1
    for j in range(1, len(nodes)):
        level = list(map(sub, level[1:], level))
        if equally_spaced:
            step = nodes[j] - nodes[0]
        else:
            gaps = list(map(sub, nodes[j:], nodes))
            step = lcm(*gaps)
            level = list(map(mul, level, map(step.__floordiv__, gaps)))
        tops.append(level[0])
        steps.append(step)

    acc: list[int] = []
    weight = 1  # scale_N / scale_j
    for node, top, step in zip(reversed(nodes), reversed(tops), reversed(steps)):
        acc.append(0)
        below = 0  # old entry i-1
        for i in range(len(acc)):
            old = acc[i]
            acc[i] = below - node * old
            below = old
        acc[0] += top * weight
        weight *= step
    if d != 1:
        acc = [c * d**m for m, c in enumerate(acc)]
    return RationalPolynomial(acc, weight * e)
