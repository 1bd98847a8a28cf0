"""Scalar substrate: exact rationals and their serialization."""
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernocchi.exact import _json_text, format_rational


@given(
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=40),
)
def test_field_axioms_sample(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x != 0:
        assert x * (1 / x) == 1


def test_format_rational():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(17, 510)) == "1/30"
    for value in (Fraction(0), Fraction(-1, 2), Fraction(43867, 798), Fraction(-28820619)):
        assert Fraction(format_rational(value)) == value


# Text that JSON must escape: quote, backslash, C0 controls, DEL, non-ASCII,
# a lone surrogate and an astral character, mixed with plain ASCII.
awkward_text = st.text(st.sampled_from('"\\\x00\x08\t\n\x1f\x7f \xe9\u2028\ud800\U0001d11e/-1aZ'))
json_scalars = st.text() | awkward_text | st.integers() | st.integers(-(10**400), 10**400)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text() | awkward_text, inner),
    max_leaves=30,
)


def _as_generators(value):
    """value with every list and tuple replaced by a generator of its items."""
    if isinstance(value, dict):
        return {key: _as_generators(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (_as_generators(item) for item in value)
    return value


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({})
@example([])
@example({"a": [], "b": {}, "": ()})
@example([{}, [], ""])
@example(-(10**400))
def test_json_text_is_json_dumps(value):
    want = json.dumps(value, indent=2)
    assert "".join(_json_text(value)) == want
    assert "".join(_json_text(_as_generators(value))) == want


@pytest.mark.parametrize("scalar", [True, False, None, 1.5], ids=repr)
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x, lambda x: [x], lambda x: {"k": x},
        lambda x: iter([1, x]), lambda x: {"k": iter([x])},
    ],
    ids=["bare", "in-list", "in-dict", "in-generator", "in-streamed-member"],
)
def test_json_text_refuses_bool_none_and_float(scalar, wrap):
    with pytest.raises(TypeError):
        "".join(_json_text(wrap(scalar)))
