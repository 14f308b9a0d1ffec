import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from homsample.jsonout import dumps_indented

TEXT = st.text() | st.sampled_from(["", "é", "日本", " ", '"\\/\b\f\n\r\t', "\x00\x1f\x7f"])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.none() | st.booleans() | st.integers() | FINITE | TEXT
KEYS = TEXT | st.integers() | FINITE | st.booleans() | st.none()


def _values(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(KEYS, inner, max_size=4),
        max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_values(SCALARS))
def test_writer_gives_the_bytes_of_json_dumps(obj):
    assert dumps_indented(obj) == json.dumps(obj, indent=2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_values(SCALARS | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_non_finite_floats_raise_on_both_writers(obj):
    try:
        want = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            dumps_indented(obj)
    else:
        assert dumps_indented(obj) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1, x], lambda x: {"a": {"b": [x]}},
                                  lambda x: {x: 1}])
def test_each_non_finite_float_raises(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        dumps_indented(obj)


@pytest.mark.parametrize("obj", [object(), {"a": {1, 2}}, {(1, 2): 3}, [b"bytes"]])
def test_unserializable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        dumps_indented(obj)
