"""The report writer and number printers against the library paths they
replace: ``json.dumps(obj, indent=2)``, ``str(Fraction(x))`` and
``float(f"{float(x):.12g}")``."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from padicdiff.errors import InputError
from padicdiff.jsonutil import dumps, fmt_float, frac_str

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 1e300, 5e-324]

_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\u00e9", "\u2028", "\U0001f600", ""]
)
_SCALARS = (
    st.text(max_size=6)
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.booleans()
    | st.none()
    | st.just({})
    | st.just([])
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]})
@example([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5, 10**40, -(10**40)])
@example({'"\\\n\x00\u00e9\u2028': True, "": [False, None, {}]})
@example({})
@example([])
@example(math.inf)
def test_dumps_equals_json_dumps_indent_2(payload):
    assert dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "payload",
    [
        F(0),  # falsy: a writer that tests emptiness first would print it as []
        F(1, 2),
        {"value": F(3)},
        [1, [F(0)]],
        {1: "int key"},
        {"nested": {None: 0}},
        (1, 2),
        {"rows": (1,)},
    ],
)
def test_dumps_rejects_any_other_type(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def _slow_frac_str(x):
    if x is None:
        return None
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(F(x))


def _slow_fmt_float(x):
    if x is None:
        return None
    return float(f"{float(x):.12g}")


def _outcome(fn, x):
    try:
        return repr(fn(x))  # repr tells nan and -0.0 apart and equal
    except OverflowError as exc:
        return type(exc)


_BIG = st.integers(min_value=-(10**400), max_value=10**400)
_NUMBERS = (
    st.fractions()
    | st.builds(F, _BIG, _BIG.filter(bool))
    | st.integers()
    | _BIG
    | st.booleans()
    | st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.none()
)


@settings(max_examples=300, deadline=None)
@given(_NUMBERS)
@example(F(1, 3))
@example(F(-(10**400), 3))
@example(F(2**53 + 1, 1))
@example(True)
@example(0)
def test_printers_equal_the_library_paths(x):
    assert frac_str(x) == _slow_frac_str(x)
    assert _outcome(fmt_float, x) == _outcome(_slow_fmt_float, x)


@pytest.mark.parametrize(
    "x",
    [F(10**4400, 3), F(1, 10**4400), F(10**4400), 10**4400],
    ids=["numerator", "denominator", "integral-fraction", "int"],
)
def test_frac_str_past_the_digit_limit_is_an_input_error(x):
    with pytest.raises(InputError, match="digits"):
        frac_str(x)

