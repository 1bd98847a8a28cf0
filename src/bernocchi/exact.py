"""Exact scalars and the text format of rationals.

Integers are plain Python ``int`` (unbounded, exact), and integer powers
are plain ``**``, which gives ``0 ** 0 == 1``, the convention the formulas
rely on.  Rationals are ``fractions.Fraction``, which is always stored
reduced with a positive denominator, so structural equality is
mathematical equality.  Every output writes a rational as "p" or "p/q".
"""
from __future__ import annotations

from fractions import Fraction

__all__ = ["format_rational"]


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q" (q > 0, gcd(p,q)=1), or plain "p" when q == 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

