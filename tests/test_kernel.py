"""Zero-sum tables from the integer kernel, and minimal vectors by dualisation.

The kernel enumerator and the dualisation are checked against the
whole-box references in `oracles.py`, on random class layouts and on
real spaces; the reach points are pinned to the counts of the
independent numpy/sympy checker `bench/checker.py`.
"""
from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import space_family
from qhopper import (
    CycInt,
    InfeasibleSizeError,
    LatticeSpec,
    amplitude_classes,
    count_precluded,
    count_primitive,
    enumerate_histories,
    enumerate_primitive,
    initial_state,
    maximal_zero_count_vectors,
    minimal_preclusive_vectors,
    root,
)
from qhopper.cli import main
from qhopper.coevents import _dualise_maxima
from qhopper.errors import LIMITS
from qhopper.measure import (
    _enumerate_zero_vectors,
    _vector_maxima,
    sector_tables,
)

ORDERS = (3, 4, 5, 8, 12)


def _monomials(order: int) -> set[tuple[int, ...]]:
    return {(s * root(order, k)).canonical() for k in range(order) for s in (1, -1)}


@st.composite
def class_layouts(draw):
    """An order, 1 to 6 non-monomial nonzero class values, counts 0 to 4.

    A value may repeat an earlier one negated, so that nontrivial
    kernels inside small boxes are common.
    """
    order = draw(st.sampled_from(ORDERS))
    excluded = _monomials(order) | {CycInt.zero(order).canonical()}
    fresh = st.lists(
        st.integers(min_value=-2, max_value=2), min_size=order, max_size=order
    ).map(lambda cs: CycInt(order, cs)).filter(
        lambda v: v.canonical() not in excluded
    )
    values: list[CycInt] = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if values and draw(st.booleans()):
            values.append(-draw(st.sampled_from(values)))
        else:
            values.append(draw(fresh))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=len(values),
            max_size=len(values),
        )
    )
    return order, tuple(values), tuple(counts)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(class_layouts())
def test_kernel_enumerator_equals_box_walk(layout):
    order, values, counts = layout
    fast = _enumerate_zero_vectors(values, counts, order, LIMITS.max_vectors.default)
    assert fast == oracles.box_zero_vectors(values, counts, order)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(class_layouts())
def test_maxima_and_dualised_minimal_vectors_equal_box_scans(layout):
    order, values, counts = layout
    zeros = oracles.box_zero_vectors(values, counts, order)
    maxima = tuple(_vector_maxima(zeros))
    assert list(maxima) == [
        v for v in zeros
        if not any(w != v and all(a <= b for a, b in zip(v, w)) for w in zeros)
    ]
    assert _dualise_maxima(maxima, counts, LIMITS.max_vectors.default) == (
        oracles.box_minimal_preclusive(counts, zeros)
    )


@st.composite
def boxes_with_maxima(draw):
    """Counts of 1 to 5 classes and up to 6 points of their box."""
    counts = tuple(draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)))
    point = st.tuples(*(st.integers(min_value=0, max_value=c) for c in counts))
    return counts, tuple(draw(st.lists(point, min_size=1, max_size=6)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(boxes_with_maxima())
def test_dualisation_of_any_point_set_equals_sorted_box_scan(layout):
    # any point set, not only maxima of zero-sum sets: more points per box
    # than the class layouts give, in any dominance order
    counts, points = layout
    assert _dualise_maxima(points, counts, LIMITS.max_vectors.default) == (
        oracles.box_minimal_preclusive(counts, list(points))
    )


def _real_spaces():
    spaces = space_family(max_histories=27)
    for n in (4, 5):
        spec = LatticeSpec(n, 2)
        for label in ("ground", "plus", "minus", "standing"):
            spaces.append(enumerate_histories(spec, initial_state(spec, label), 0))
    return [sp for sp in spaces if sp.final is not None]


def test_tables_and_minimal_vectors_match_box_references_on_real_spaces():
    checked = 0
    for space in _real_spaces():
        classes = amplitude_classes(space)
        (table,) = sector_tables(classes).values()
        if math.prod(c + 1 for c in table.counts) > 1 << 12:
            continue
        zeros = oracles.box_zero_vectors(table.values, table.counts, space.order)
        assert list(table.zero_vectors) == zeros
        assert minimal_preclusive_vectors(classes) == (
            oracles.box_minimal_preclusive(table.counts, zeros)
        )
        checked += 1
    assert checked >= 50


# -- guards --------------------------------------------------------------------


def _guarded_calls(space, classes, max_vectors):
    return (
        lambda: sector_tables(classes, max_vectors=max_vectors),
        lambda: count_precluded(classes, max_vectors=max_vectors),
        lambda: maximal_zero_count_vectors(classes, max_vectors=max_vectors),
        lambda: minimal_preclusive_vectors(classes, max_vectors=max_vectors),
        lambda: count_primitive(space, max_vectors=max_vectors),
        lambda: enumerate_primitive(space, max_vectors=max_vectors),
    )


def test_free_box_guard_does_not_depend_on_cache_state(spec3):
    # classes of 12, 9 and 6 histories over a rank-2 matrix: the two
    # largest are pivots, so the free box is the 7 counts of the third
    for warm_first in (False, True):
        space = enumerate_histories(spec3, initial_state(spec3, "plus"), 0)
        classes = amplitude_classes(space)
        if warm_first:
            assert len(sector_tables(classes)[0].zero_vectors) == 7
        for call in _guarded_calls(space, classes, 6):
            with pytest.raises(InfeasibleSizeError, match="free-class box of 7 points"):
                call()
        for call in _guarded_calls(space, classes, 7):
            call()
        assert len(sector_tables(classes, max_vectors=7)[0].zero_vectors) == 7


def test_dualisation_antichain_is_bounded_by_max_vectors():
    # escaping 2*e_i for every i takes two classes at 1, or one at 3
    maxima = tuple(tuple(2 if j == i else 0 for j in range(4)) for i in range(4))
    counts = (3, 3, 3, 3)
    minimal = _dualise_maxima(maxima, counts, 10)
    assert minimal == oracles.box_minimal_preclusive(counts, list(maxima))
    assert len(minimal) == 10
    with pytest.raises(InfeasibleSizeError, match="10 minimal .* max_vectors guard of 9"):
        _dualise_maxima(maxima, counts, 9)


# -- reach points ----------------------------------------------------------------

# (n, T, state): primitive and precluded counts of final 0, as computed by
# the independent checker bench/checker.py over the whole count-vector box
REACH_POINTS = {
    (4, 3, "plus"): (8, 511872177063520),
    (5, 3, "plus"): (28626950, 1715469314104561043078635468650256),
    (3, 4, "standing"): (1757570868, 2492589634210541999316),
    (3, 6, "plus"): (
        356297682610462383901533240912942540,
        int(
            "151432444303885404803406900701139595787100905174171027709578166880"
            "524036379728804653689119274941083576355738159568171679046104679924"
            "964063838328615626276198831692770899743157726749561189336846855601"
            "6159113408370122880"
        ),
    ),
}


@pytest.mark.parametrize("point", sorted(REACH_POINTS), ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def test_reach_point_counts_match_checker(point):
    n, steps, state = point
    spec = LatticeSpec(n, steps)
    space = enumerate_histories(spec, initial_state(spec, state), 0)
    primitive, precluded = REACH_POINTS[point]
    assert count_precluded(amplitude_classes(space)) == precluded
    assert count_primitive(space) == primitive


def test_six_site_reach_point_is_refused_within_a_second(capsys):
    spec = LatticeSpec(6, 3)
    space = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    start = time.perf_counter()
    for call in (
        lambda: count_precluded(amplitude_classes(space)),
        lambda: count_primitive(space),
    ):
        with pytest.raises(InfeasibleSizeError) as err:
            call()
        message = str(err.value)
        assert "free-class box of 298944100 points" in message
        assert "max_vectors guard of 1048576" in message
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    code = main(["preclusion", "--sites", "6", "--steps", "3", "--state", "plus",
                 "--final", "0", "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "free-class box of 298944100 points" in err
    assert "max_vectors guard" in err
