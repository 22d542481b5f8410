from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopper.cyclotomic import CycInt
from qhopper.render import json_ready

LIMIT = 1 << 53


def same(a, b) -> bool:
    """Equal values of identical types all the way down (True == 1 is not enough)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def exact_json(obj) -> bool:
    """Only JSON types, string keys, and no int a double cannot hold."""
    if type(obj) is int:
        return abs(obj) <= LIMIT
    if obj is None or type(obj) in (bool, str):
        return True
    if type(obj) is list:
        return all(exact_json(v) for v in obj)
    if type(obj) is dict:
        return all(type(k) is str and exact_json(v) for k, v in obj.items())
    return False


class Level(enum.IntEnum):
    HIGH = LIMIT + 1


near_limit = st.one_of(
    st.integers(LIMIT - 2, LIMIT + 2),
    st.integers(-LIMIT - 2, -LIMIT + 2),
    st.integers(-3, 3),
    st.integers(),
)
cycints = st.integers(1, 12).flatmap(
    lambda m: st.lists(st.integers(-3, 3), min_size=m, max_size=m).map(
        lambda cs: CycInt(m, cs)
    )
)
leaves = st.one_of(
    near_limit,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.fractions(max_denominator=LIMIT * 4),
    cycints,
    st.just(Level.HIGH),
)
keys = st.one_of(st.text(max_size=3), near_limit, st.tuples(st.integers(), st.integers()))
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_json_ready_yields_exact_json(obj):
    ready = json_ready(obj)
    assert exact_json(ready)
    assert same(json.loads(json.dumps(ready)), ready)


@pytest.mark.parametrize("value", [LIMIT, -LIMIT])
def test_the_limit_stays_an_int(value):
    assert same(json_ready(value), value)
    assert same(json_ready([value, 1]), [value, 1])
    assert same(json_ready((value,)), [value])


@pytest.mark.parametrize("value", [LIMIT + 1, -LIMIT - 1])
def test_past_the_limit_becomes_a_decimal_string(value):
    assert same(json_ready(value), str(value))
    assert same(json_ready([1, value]), [1, str(value)])
    assert same(json_ready({"k": (value,)}), {"k": [str(value)]})


def test_a_bool_inside_a_list_stays_a_bool():
    assert same(json_ready([1, True, 0, False]), [1, True, 0, False])
    assert same(json_ready((True,)), [True])


def test_an_int_subclass_past_the_limit_becomes_a_decimal_string():
    assert same(json_ready([Level.HIGH]), [str(LIMIT + 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-LIMIT, LIMIT), max_size=6),
    st.integers(0, 6),
    st.floats(allow_nan=False),
    st.integers(0, 3),
)
def test_a_float_anywhere_is_refused(ints, at, x, depth):
    obj = ints[:at] + [x] + ints[at:]
    for level in range(depth):
        obj = (obj,) if level % 2 else {"k": obj}
    with pytest.raises(TypeError, match="floating-point"):
        json_ready(obj)
