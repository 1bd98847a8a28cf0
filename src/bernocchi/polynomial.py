"""Dense univariate polynomials over exact rationals."""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul, sub
from typing import Iterable, Sequence

__all__ = ["RationalPolynomial", "X", "interpolate"]


class RationalPolynomial:
    """Immutable polynomial; coefficient i is the coefficient of x**i.

    Trailing zero coefficients are trimmed, so the highest stored
    coefficient is nonzero and equality is structural.  The zero
    polynomial stores no coefficients and has degree ``None``.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int | None:
        if not self.coefficients:
            return None
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return RationalPolynomial(summed)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coefficients)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            if not self.coefficients or not other.coefficients:
                return RationalPolynomial()
            prod = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    prod[i + j] += a * b
            return RationalPolynomial(prod)
        return RationalPolynomial(Fraction(other) * c for c in self.coefficients)

    __rmul__ = __mul__

    def derivative(self) -> "RationalPolynomial":
        """Formal derivative; drops the degree by one for nonconstant input."""
        return RationalPolynomial(i * c for i, c in enumerate(self.coefficients) if i)

    def __call__(self, v: Fraction | int) -> Fraction:
        """Exact Horner evaluation at v."""
        v = Fraction(v)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * v + c
        return acc

    evaluate = __call__

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coefficients)!r})"


X = RationalPolynomial((0, 1))


def _integer_form(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(e, s) with values = s/e: e the lcm of the denominators, s integers."""
    e = lcm(*(v.denominator for v in values))
    return e, [v.numerator * (e // v.denominator) for v in values]


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
    result is acc_m d^m / (scale_N e).  The abscissas must be pairwise
    distinct.

    On equally spaced nodes every gap of level j equals X_j - X_0, which is
    taken as step_j, so the levels are plain forward differences and no
    gaps are formed; on the consecutive integers 0..N, scale_N / scale_j is
    N!/j!.  On scattered rational nodes scale_N grows faster than the lcm
    of a Lagrange form would.
    """
    d, nodes = _integer_form([Fraction(x) for x, _ in points])
    e, level = _integer_form([Fraction(y) for _, y in points])
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
        acc = list(map(sub, [0, *acc], [*map(node.__mul__, acc), 0]))
        acc[0] += top * weight
        weight *= step
    denominator = weight * e
    return RationalPolynomial(Fraction(c * d**m, denominator) for m, c in enumerate(acc))
