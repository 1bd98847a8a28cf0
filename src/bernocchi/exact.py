"""Exact scalars and the text of every output.

Integers are plain Python ``int`` (unbounded, exact), and integer powers
are plain ``**``, which gives ``0 ** 0 == 1``, the convention the formulas
rely on.  Rationals are ``fractions.Fraction``, which is always stored
reduced with a positive denominator, so structural equality is
mathematical equality.  Every output writes a rational as "p" or "p/q",
through the one rule ``_ratio_text``; this module reads only the
numerator and denominator of a value and never imports ``fractions``.

Every JSON output of the CLI is ``json.dumps(value, indent=2)``, byte for
byte, written from its value by the one private writer ``_json_text``
without ``json`` loaded unless a string needs escaping.
"""
from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["format_rational"]


def format_rational(value: Fraction | int) -> str:
    """The text of str(Fraction(value)): "p/q" (q > 0, gcd(p,q)=1), or "p" when q == 1."""
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(numerator: int, denominator: int) -> str:
    """The text of the reduced ratio numerator/denominator (denominator > 0),
    as str(Fraction) writes it: "p/q", or "p" when q == 1."""
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def _json_string(text: str) -> str:
    """text as json.dumps writes a str: printable ASCII without " or \\ as
    it is, anything else through json's own escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # loaded only for text that needs escaping

    return json.dumps(text)


def _json_text(value, indent=""):
    """The text of json.dumps(value, indent=2) for a value whose closing
    bracket is at indent, yielded a piece at a time.

    value is a str, an int, a dict with str keys, or any other iterable,
    which is written as an array.  A dict, and an iterable that is not a
    list or tuple, is written a member at a time and read once, so a writer
    never holds a streamed array whole; a str, int, list or tuple is
    written in one join.  bool, None and float raise TypeError: no output
    carries them.
    """
    if isinstance(value, (str, int, list, tuple)):
        yield _json_joined(value, indent)
        return
    if isinstance(value, dict):
        head, tail, members = "{", "}", ((_json_string(k) + ": ", v) for k, v in value.items())
    else:
        head, tail, members = "[", "]", zip(repeat(""), value)  # TypeError if not iterable
    step = f"\n{indent}  "
    for key, item in members:
        yield f"{head}{step}{key}"
        yield from _json_text(item, indent + "  ")
        head = ","
    yield f"\n{indent}{tail}" if head == "," else head + tail


def _json_joined(value, indent: str) -> str:
    """All that _json_text(value, indent) yields, built in one walk and joined."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        head, tail = "{", "}"
        items = [f"{_json_string(k)}: {_json_joined(v, inner)}" for k, v in value.items()]
    else:
        head, tail = "[", "]"
        items = [_json_joined(v, inner) for v in value]  # TypeError if not iterable
    step = f"\n{inner}"
    return f"{head}{step}{(',' + step).join(items)}\n{indent}{tail}" if items else head + tail
