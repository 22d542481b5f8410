from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopper.cyclotomic import CycInt
from qhopper.render import dumps_canonical, json_ready

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


class Small(enum.IntEnum):
    THREE = 3  # stays an IntEnum through json_ready; JSON writes it as 3


class Tagged(int):
    """An int subclass printing otherwise; JSON writes the plain number."""

    def __repr__(self) -> str:
        return "tagged"

    __str__ = __repr__


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


def test_rows_of_plain_cells_become_lists():
    rows = ((1, 2), [LIMIT, -LIMIT], (), ("a", "b"))
    assert same(json_ready(rows), [[1, 2], [LIMIT, -LIMIT], [], ["a", "b"]])
    assert same(json_ready([]), [])


@pytest.mark.parametrize(
    "cell, ready",
    [(True, True), (Small.THREE, Small.THREE), (Tagged(5), Tagged(5)),
     (LIMIT + 1, str(LIMIT + 1)), (-LIMIT - 1, str(-LIMIT - 1)), ("a", "a")],
    ids=["bool", "IntEnum", "int subclass", "past the limit", "below the limit", "str among ints"],
)
def test_rows_with_one_cell_to_convert_keep_every_cell_exact(cell, ready):
    assert same(json_ready([(1, 2), (3, cell)]), [[1, 2], [3, ready]])


@pytest.mark.parametrize(
    "obj", [{1, 2}, frozenset({1}), [object()]], ids=["set", "frozenset", "object"]
)
def test_an_unknown_type_is_refused(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        json_ready(obj)


# strings a JSON writer must escape or pass through: quotes, backslashes,
# control characters, non-ASCII labels
labels = st.one_of(
    st.sampled_from(["", "ω̄", "ζ8^3", 'a"b', "back\\slash", "\x00\x1f\x7f", "tab\tnl\n", "\u2028é"]),
    st.text(max_size=6),
)
int_lists = st.lists(
    st.one_of(
        st.integers(-3, 3), near_limit, st.booleans(), st.just(Small.THREE), st.just(Tagged(5))
    ),
    max_size=6,
)
dump_leaves = st.one_of(
    near_limit,
    st.sampled_from([LIMIT, -LIMIT, LIMIT + 1, -LIMIT - 1]),
    st.booleans(),
    st.none(),
    labels,
    st.fractions(max_denominator=LIMIT * 4),
    cycints,
    st.sampled_from([Level.HIGH, Small.THREE, Tagged(5)]),
    st.sampled_from([[], (), {}]),
    int_lists,
    int_lists.map(tuple),
)
dump_keys = st.one_of(labels, near_limit, st.tuples(st.integers(), st.integers()))
dump_values = st.recursive(
    dump_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(dump_keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(dump_values)
def test_dumps_canonical_writes_what_json_dumps_writes(obj):
    expected = json.dumps(json_ready(obj), indent=2, ensure_ascii=False) + "\n"
    assert dumps_canonical(obj) == expected


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
    with pytest.raises(TypeError, match="floating-point"):
        dumps_canonical(obj)
