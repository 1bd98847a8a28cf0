"""Independent reference values for checking bernocchi's output.

B_n comes from the Akiyama-Tanigawa algorithm, which shares no code and no
method with the package under test (no Stirling numbers, no generating-
function recurrence).  The algorithm yields B_1 = +1/2; the package uses
B_1 = -1/2, so that one value is negated.  G_n = 2(1 - 2^n) B_n.
"""
from __future__ import annotations

import math
from fractions import Fraction


def bernoulli_numbers(max_n: int) -> list[Fraction]:
    """[B_0, ..., B_max_n], with B_1 = -1/2.

    Every Akiyama-Tanigawa entry at step m has a denominator dividing
    lcm(1..m+1), so the table is kept as integers scaled by lcm(1..max_n+1).
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    scale = math.lcm(*range(1, max_n + 2))
    row: list[int] = []
    numbers = []
    for m in range(max_n + 1):
        row.append(scale // (m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(Fraction(row[0], scale))
    if max_n >= 1:
        numbers[1] = -numbers[1]
    return numbers


def genocchi(n: int, b_n: Fraction) -> Fraction:
    """G_n = 2(1 - 2^n) B_n, for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * (1 - 2**n) * b_n


def rational_text(value: Fraction) -> str:
    """The CLI's rational syntax: "p/q" with q > 0, or "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
