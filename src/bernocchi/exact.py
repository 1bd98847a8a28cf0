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


def format_rational(value: Fraction | int) -> str:
    """The text of str(Fraction(value)): "p/q" (q > 0, gcd(p,q)=1), or "p" when q == 1."""
    return str(Fraction(value))

