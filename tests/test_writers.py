"""Every output writer equals its reference renderer.

The JSON, text and csv writers convert as they write, in one walk, and
write a listing of rows of plain ints row by row; the references in
`oracles.py` convert the whole value with `json_ready` first.  The drawn
listings are mostly plain, so the row paths run, with empty and
one-element rows, ints at and past ±2^53, bool and IntEnum cells,
non-ASCII strings, fractions and cyclotomic values among them.
"""
from __future__ import annotations

import csv
import enum
import io
import json
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopper import LatticeSpec, enumerate_histories, initial_state, root
from qhopper.coevents import primitive_profile
from qhopper.analysis import coevent_rows, event_by_name
from qhopper.render import _csv_rows, _text_lines, dumps_canonical, json_ready

LIMIT = 1 << 53


class Level(enum.IntEnum):
    THREE = 3
    HIGH = LIMIT + 1


indices = st.integers(0, 40)
odd_cells = st.one_of(
    # 7**6000 has more digits than str(int) converts by default
    st.sampled_from([LIMIT, -LIMIT, LIMIT + 1, -LIMIT - 1, 7**30, -(7**6000), -1]),
    st.booleans(),
    st.sampled_from([Level.THREE, Level.HIGH]),
    st.sampled_from(["ω̄", "ζ8^3", "é", "", "a b"]),
    st.sampled_from([Fraction(-2, 3), root(3, 1), root(8, 3) * 2]),
)
cells = st.one_of(indices, indices, indices, odd_cells)
rows = st.one_of(
    st.lists(indices, max_size=4),
    st.lists(cells, max_size=1),
    st.lists(cells, max_size=4),
).flatmap(lambda row: st.sampled_from([row, tuple(row)]))
listings = st.one_of(
    st.lists(st.lists(indices, min_size=1, max_size=5).map(tuple), max_size=6),
    st.lists(rows, max_size=6),
)
documents = st.fixed_dictionaries(
    {"count": cells, "sizes": st.lists(cells, max_size=3), "supports": listings}
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(listings, documents))
def test_json_writer_equals_json_dumps_of_json_ready(obj):
    expected = json.dumps(json_ready(obj), indent=2, ensure_ascii=False) + "\n"
    assert dumps_canonical(obj) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(listings, documents))
def test_text_writer_equals_the_reference_on_json_ready(obj):
    assert _text_lines(obj) == oracles.text_lines(json_ready(obj))


def _written(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


tables = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.one_of(cells, rows), min_size=width, max_size=width).map(tuple), max_size=6
    )
)
coevent_like = st.lists(
    st.tuples(indices, st.lists(indices, max_size=5).map(tuple), cells, st.lists(indices)),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tables, coevent_like))
def test_csv_writer_equals_the_column_reference(table):
    reference = zip(*(oracles.csv_column(list(column)) for column in zip(*table)))
    assert _written(_csv_rows(table)) == _written(reference)


@pytest.mark.parametrize("state, final", [("plus", 0), ("minus", 1), ("ground", 2), ("standing", 1)])
def test_coevent_rows_equal_the_site_tuple_reference(state, final):
    spec = LatticeSpec(3, 3)
    space = enumerate_histories(spec, initial_state(spec, state), final)
    supports = primitive_profile(space).supports()
    names = ("never_moves", "never_rests", "rests_exactly_once", "circulates_positive_only")
    events = {name: event_by_name(space, name) for name in names}
    assert coevent_rows(supports, space, events) == oracles.coevent_rows(supports, space, events)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_coevent_records_are_the_rows_keyed_by_their_fields(data):
    spec = LatticeSpec(3, 2)
    state = data.draw(st.sampled_from(["ground", "plus", "minus", "standing"]))
    space = enumerate_histories(spec, initial_state(spec, state), data.draw(st.integers(0, 2)))
    listed = primitive_profile(space).supports()
    supports = data.draw(st.lists(st.sampled_from(listed), max_size=8)) if listed else []
    supports.append(())  # an empty support lies inside every event
    named = ["never_moves", "never_rests", "rests_exactly_once", "avoids_site:1", "terminates_at:0"]
    names = data.draw(st.lists(st.sampled_from(named), unique=True, max_size=5))
    events = {name: event_by_name(space, name) for name in names}
    rows = coevent_rows(supports, space, events)
    assert rows == oracles.coevent_rows(supports, space, events)
