"""Zero-sum tables from the integer kernel, and minimal vectors by dualisation.

The kernel walk and the dualisation are checked against the whole-box
references in `oracles.py`, on random class layouts and on real spaces,
and the antichain they share against linear scans;
the reach points are pinned to the counts of the independent
numpy/sympy checker `bench/checker.py`.
"""
from __future__ import annotations

import itertools
import math
import time

import pytest
from hypothesis import assume, given, settings
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
import qhopper.measure
from qhopper.cli import _parse_state as parse_state
from qhopper.cli import main
from qhopper.coevents import _dualise_maxima, is_preclusive, is_primitive
from qhopper.histories import Event, bit_indices
from qhopper.errors import LIMITS
from qhopper.measure import (
    SectorTable,
    _Antichain,
    _directions,
    _kernel_walk,
    _sector_kernel,
    sector_tables,
)

ORDERS = (3, 4, 5, 8, 12)


def _monomials(order: int) -> set[tuple[int, ...]]:
    return {(s * root(order, k)).canonical() for k in range(order) for s in (1, -1)}


def _fresh_values(order: int):
    excluded = _monomials(order) | {CycInt.zero(order).canonical()}
    return st.lists(
        st.integers(min_value=-2, max_value=2), min_size=order, max_size=order
    ).map(lambda cs: CycInt(order, cs)).filter(
        lambda v: v.canonical() not in excluded
    )


@st.composite
def class_layouts(draw):
    """An order, 1 to 6 non-monomial class values, counts 0 to 4.

    A value may repeat an earlier one negated, so that nontrivial
    kernels inside small boxes are common, or be zero, so that a class
    is free with no pivot row to bound it.  It may also be an earlier
    value times ±2 or ±3, so that directions of several parallel classes
    with unequal scales are common.
    """
    order = draw(st.sampled_from(ORDERS))
    fresh = _fresh_values(order)
    values: list[CycInt] = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("fresh", "negated", "zero", "scaled")))
        if kind == "zero":
            values.append(CycInt.zero(order))
        elif kind == "negated" and values:
            values.append(-draw(st.sampled_from(values)))
        elif kind == "scaled" and values:
            values.append(draw(st.sampled_from(values)) * draw(st.sampled_from((2, -2, 3, -3))))
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


def _box_count(counts, zeros) -> int:
    return sum(math.prod(map(math.comb, counts, v)) for v in zeros)


def _box_maxima(zeros) -> list[tuple[int, ...]]:
    """The zero-sum vectors no other one dominates, in the order given."""
    return [
        v for v in zeros
        if not any(w != v and all(a <= b for a, b in zip(v, w)) for w in zeros)
    ]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(class_layouts())
def test_kernel_walk_equals_box_walk(layout):
    order, values, counts = layout
    precluded, maxima = _kernel_walk(_sector_kernel(values, counts), counts)
    zeros = oracles.box_zero_vectors(values, counts, order)
    assert precluded == _box_count(counts, zeros)
    assert list(maxima) == _box_maxima(zeros)  # both in ascending lexicographic order


@st.composite
def line_layouts(draw):
    """3 to 8 classes on the lines through b, b' and b + b', for two fresh
    values b, b', the first three on one line each, every class at a scale
    of ±1, ±2 or ±3, with counts 0 to 4: the shape of a custom state's
    sector."""
    order = draw(st.sampled_from(ORDERS))
    b, b2 = draw(_fresh_values(order)), draw(_fresh_values(order))
    assume(len(_sector_kernel((b, b2), (1, 1)).pivots) == 2)  # not parallel
    lines = (b, b2, b + b2)
    size = draw(st.integers(min_value=3, max_value=8))
    values = tuple(
        (lines[i] if i < 3 else draw(st.sampled_from(lines)))
        * draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
        for i in range(size)
    )
    counts = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(size))
    return order, values, counts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(line_layouts())
def test_kernel_walk_equals_class_walk_on_three_lines(layout):
    # free directions of several classes between two solved ones, as in
    # the custom states, in boxes too large to walk whole
    _, values, counts = layout
    kernel = _sector_kernel(values, counts)
    assert _kernel_walk(kernel, counts) == oracles.class_kernel_walk(kernel, counts)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(class_layouts())
def test_dualised_maxima_equal_box_scan(layout):
    order, values, counts = layout
    zeros = oracles.box_zero_vectors(values, counts, order)
    maxima = tuple(_box_maxima(zeros))
    assert _dualise_maxima(maxima, counts, LIMITS.max_vectors.default) == (
        oracles.box_minimal_preclusive(counts, zeros)
    )


@st.composite
def boxes_with_maxima(draw, max_points=6):
    """Counts of 1 to 5 classes, 0 to 4 each, and 1 to `max_points` points of their box."""
    counts = tuple(draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)))
    point = st.tuples(*(st.integers(min_value=0, max_value=c) for c in counts))
    return counts, tuple(draw(st.lists(point, min_size=1, max_size=max_points)))


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
        assert table.precluded == _box_count(table.counts, zeros)
        assert list(table.maximal_zero) == _box_maxima(zeros)
        assert minimal_preclusive_vectors(classes) == (
            oracles.box_minimal_preclusive(table.counts, zeros)
        )
        checked += 1
    assert checked >= 50


# (3,3) states of the frontier's custom coefficient patterns (-3,-1,1),
# (-3,-2,-1) and (-2,-1,2), at several phase draws: eight classes in
# three value directions
CUSTOM_STATES = (
    "custom:0:3,2:1,2:-1", "custom:0:3,1:1,2:-1", "custom:1:-3,1:-1,0:1",
    "custom:2:-3,0:-2,2:-1", "custom:2:-3,1:-2,0:-1", "custom:0:3,0:2,1:1",
    "custom:0:2,1:1,1:-2", "custom:1:-2,0:-1,2:2", "custom:2:2,2:1,0:-2",
)


# (n, T, state) whose every sector has a class of value 0, the histories
# from a site of amplitude 0, which the walk takes whole as a factor
ZERO_CLASS_POINTS = ((3, 3, "custom:1,0,2"), (3, 4, "custom:1,0,2"), (4, 3, "standing"))


def _walk_spaces():
    for state in ("ground", "plus", "minus", "standing"):
        for final in range(3):
            yield 3, 4, state, final
    for n, steps in ((3, 5), (4, 3)):
        yield n, steps, "plus", 0
    for state in CUSTOM_STATES:
        for final in range(3):
            yield 3, 3, state, final
    for n, steps, state in ZERO_CLASS_POINTS:
        for final in range(n):
            yield n, steps, state, final


@pytest.mark.parametrize("point", list(_walk_spaces()), ids=lambda p: "-".join(map(str, p)))
def test_direction_walk_equals_class_walk(point):
    n, steps, state, final = point
    spec = LatticeSpec(n, steps)
    space = enumerate_histories(spec, parse_state(spec, state), final)
    classes = amplitude_classes(space)
    (cids,) = classes.sectors.values()
    values = tuple(classes.classes[c].value for c in cids)
    counts = tuple(classes.classes[c].count for c in cids)
    kernel = _sector_kernel(values, counts)
    assert _kernel_walk(kernel, counts) == oracles.class_kernel_walk(kernel, counts)


@pytest.mark.parametrize("point", ZERO_CLASS_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_zero_class_points_have_a_zero_direction(point):
    n, steps, state = point
    spec = LatticeSpec(n, steps)
    for final in range(n):
        classes = amplitude_classes(enumerate_histories(spec, parse_state(spec, state), final))
        kernel = _sector_kernel(tuple(c.value for c in classes.classes), classes.counts)
        assert any(not any(u) for _, u, _ in _directions(kernel))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(class_layouts(), st.integers(min_value=0, max_value=4))
def test_a_zero_valued_class_is_a_factor_of_the_walk(layout, count):
    # any subset of a class of value 0 joins any zero-sum subset, so the
    # count doubles per member and every maximum takes the class whole
    order, values, counts = layout
    precluded, maxima = _kernel_walk(_sector_kernel(values, counts), counts)
    values, counts = values + (CycInt.zero(order),), counts + (count,)
    assert _kernel_walk(_sector_kernel(values, counts), counts) == (
        precluded << count, tuple(m + (count,) for m in maxima)
    )


def test_custom_states_walk_several_classes_per_direction():
    # what the direction walk is for: eight classes on three value lines
    spec = LatticeSpec(3, 3)
    for state in CUSTOM_STATES:
        classes = amplitude_classes(enumerate_histories(spec, parse_state(spec, state), 0))
        kernel = _sector_kernel(tuple(c.value for c in classes.classes), classes.counts)
        assert len(classes.counts) == 8
        assert sorted(len(members) for _, _, members in _directions(kernel)) == [2, 3, 3]


def test_bitmasks_wider_than_a_machine_word():
    # five classes of value 1 and one of -1: the zero-sum vectors take as
    # many from the five as from the sixth, so with 7 in the sixth the
    # maxima are the 155 ways to take 7 from five classes of 3, and the
    # minimal preclusive vectors the 155 ways to take 8
    values = (CycInt.one(3),) * 5 + (-CycInt.one(3),)
    counts = (3, 3, 3, 3, 3, 7)
    precluded, maxima = _kernel_walk(_sector_kernel(values, counts), counts)
    zeros = oracles.box_zero_vectors(values, counts, 3)
    assert precluded == _box_count(counts, zeros)
    assert list(maxima) == _box_maxima(zeros)
    assert len(maxima) == 155
    minimal = _dualise_maxima(maxima, counts, LIMITS.max_vectors.default)
    assert minimal == oracles.box_minimal_preclusive(counts, zeros)
    assert len(minimal) == 155


# -- the antichain ---------------------------------------------------------------


def _box(counts):
    return itertools.product(*(range(c + 1) for c in counts))


def _walk_rule(counts, vectors) -> _Antichain:
    # as in the kernel walk: a vector no held one dominates joins, and
    # removes the held ones it dominates
    kept = _Antichain(counts)
    for v in vectors:
        if not kept.at_least(v):
            kept.remove(kept.at_most(v))
            kept.add(v)
    return kept


def _assert_answers(antichain, held, counts):
    """`antichain` holds `held`, and answers every point of the box as linear scans do."""
    assert sorted(antichain) == sorted(held) and len(antichain) == len(held)
    for v in _box(counts):
        for bits, scan in (
            (antichain.at_least(v), [w for w in held if all(a >= b for a, b in zip(w, v))]),
            (antichain.at_most(v), [w for w in held if all(a <= b for a, b in zip(w, v))]),
        ):
            assert sorted(antichain.vectors[j] for j in bit_indices(bits)) == sorted(scan)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(boxes_with_maxima(max_points=30))
def test_walk_rule_keeps_the_maxima_in_any_order_and_answers_as_scans(layout):
    counts, vectors = layout
    _assert_answers(_walk_rule(counts, vectors), _box_maxima(sorted(set(vectors))), counts)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(boxes_with_maxima(max_points=30), st.data())
def test_removing_over_half_compacts_and_changes_no_answer(layout, data):
    counts, vectors = layout
    held = _box_maxima(sorted(set(vectors)))
    antichain = _Antichain(counts, held)
    gone = data.draw(st.sets(st.sampled_from(range(len(held))), min_size=len(held) // 2 + 1))
    removed = antichain.remove(sum(1 << j for j in gone))
    assert sorted(removed) == sorted(held[j] for j in gone)
    held = [v for j, v in enumerate(held) if j not in gone]
    assert len(antichain.vectors) == len(held)  # the index was rebuilt from the rest
    _assert_answers(antichain, held, counts)
    v = data.draw(st.sampled_from(list(_box(counts))))
    removed = antichain.remove(antichain.at_most(v))
    assert sorted(removed) == sorted(w for w in held if all(a <= b for a, b in zip(w, v)))
    _assert_answers(antichain, [w for w in held if w not in removed], counts)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(class_layouts())
def test_extendable_equals_a_scan_of_the_maxima(layout):
    _, values, counts = layout
    precluded, maxima = _kernel_walk(_sector_kernel(values, counts), counts)
    table = SectorTable(0, tuple(range(len(counts))), values, counts, precluded, maxima)
    for v in _box(counts):
        assert table.extendable(v) == any(all(k <= m for k, m in zip(v, mx)) for mx in maxima)


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


PLUS_PRECLUDED = 2017807  # zero-sum subsets of (3,3) plus at final 0


def test_free_box_guard_does_not_depend_on_cache_state(spec3):
    # classes of 12, 9 and 6 histories over a rank-2 matrix: the two
    # largest are pivots, so the free box is the 7 counts of the third
    for warm_first in (False, True):
        space = enumerate_histories(spec3, initial_state(spec3, "plus"), 0)
        classes = amplitude_classes(space)
        if warm_first:
            assert sector_tables(classes)[0].precluded == PLUS_PRECLUDED
        for call in _guarded_calls(space, classes, 6):
            with pytest.raises(InfeasibleSizeError, match="free-class box of 7 points"):
                call()
        for call in _guarded_calls(space, classes, 7):
            call()
        assert sector_tables(classes, max_vectors=7)[0].precluded == PLUS_PRECLUDED


def test_rebuilt_space_walks_once_and_is_still_guarded(spec3):
    # the walk is memoised by content: a second build of the same point
    # reuses it, and the free-box guard still refuses before the lookup
    state = initial_state(spec3, "plus")
    first = enumerate_histories(spec3, state, 0)
    second = enumerate_histories(spec3, state, 0)
    assert second is not first
    _kernel_walk.cache_clear()
    assert count_precluded(amplitude_classes(first)) == PLUS_PRECLUDED
    assert count_primitive(second) == 828
    assert _kernel_walk.cache_info().misses == 1
    classes = amplitude_classes(second)
    for call in _guarded_calls(second, classes, 6):
        with pytest.raises(InfeasibleSizeError, match="free-class box of 7 points"):
            call()
    assert _kernel_walk.cache_info().misses == 1


@pytest.mark.parametrize("final, sectors", [(0, 1), (None, 3)])
def test_sector_kernels_are_built_once_per_sector(monkeypatch, spec3, final, sectors):
    # preclusivity checks (one per member and one per support), counts and
    # tables all read the kernels and tables kept on the space's classes,
    # so each table's antichain of maxima is built once too
    state = initial_state(spec3, "plus")
    primitives = enumerate_primitive(enumerate_histories(spec3, state, 0))[:50]
    built, tables = [], []

    def counting(values, counts):
        built.append(counts)
        return _sector_kernel(values, counts)

    monkeypatch.setattr(qhopper.measure, "_sector_kernel", counting)
    monkeypatch.setattr(qhopper.measure, "SectorTable",
                        lambda *fields: tables.append(fields) or SectorTable(*fields))
    space = enumerate_histories(spec3, state, final)
    verdicts = [is_primitive(Event(space, phi.support.members)) for phi in primitives]
    assert all(verdicts) or final is None
    count_precluded(amplitude_classes(space))
    sector_tables(amplitude_classes(space))
    assert len(built) == len(tables) == sectors


@pytest.mark.parametrize("final", (0, 1))
def test_standing_four_five_answers_with_its_zero_valued_class_out_of_the_box(final):
    # a class of value 0 is a factor of the walk, so its 512 histories do
    # not count in the free box (13041 and 15617 points, not 6.7e6 and 8e6)
    spec = LatticeSpec(4, 5)
    classes = amplitude_classes(enumerate_histories(spec, initial_state(spec, "standing"), final))
    (table,) = sector_tables(classes).values()
    walked = [j for j, v in enumerate(table.values) if not v.is_zero()]
    counts = tuple(table.counts[j] for j in walked)
    zeros = sum(table.counts) - sum(counts)
    assert 0 < zeros < sum(table.counts)
    kernel = _sector_kernel(tuple(table.values[j] for j in walked), counts)
    precluded, maxima = oracles.class_kernel_walk(kernel, counts)
    assert table.precluded == count_precluded(classes) == precluded << zeros

    def whole(m):  # the maximum with every class of value 0 taken whole
        part = dict(zip(walked, m))
        return tuple(part.get(j, c) for j, c in enumerate(table.counts))

    assert table.maximal_zero == tuple(sorted(map(whole, maxima)))


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
