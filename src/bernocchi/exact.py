"""Exact scalars and the text format of rationals.

Integers are plain Python ``int`` (unbounded, exact), and integer powers
are plain ``**``, which gives ``0 ** 0 == 1``, the convention the formulas
rely on.  Rationals are ``fractions.Fraction``, which is always stored
reduced with a positive denominator, so structural equality is
mathematical equality.  Every output writes a rational as "p" or "p/q".

Every JSON output of the CLI lays out its strings and arrays with the two
private helpers below, byte for byte as ``json.dumps(value, indent=2)``
writes them, and loads ``json`` only for a string that needs escaping.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

__all__ = ["format_rational"]


def format_rational(value: Fraction | int) -> str:
    """The text of str(Fraction(value)): "p/q" (q > 0, gcd(p,q)=1), or "p" when q == 1."""
    return str(Fraction(value))


def _json_string(text: str) -> str:
    """text as json.dumps writes a str: printable ASCII without " or \\ as
    it is, anything else through json's own escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # loaded only for text that needs escaping

    return json.dumps(text)


def _json_array(items: Iterable[str], indent: str) -> Iterator[str]:
    """The text of an array of items, each already JSON text, laid out as
    json.dumps(indent=2) lays out an array whose closing bracket is at
    indent, one item at a time, so that a writer never holds it whole."""
    step = f"\n{indent}  "
    empty = True
    for item in items:
        yield ("[" if empty else ",") + step + item
        empty = False
    yield "[]" if empty else f"\n{indent}]"
