from __future__ import annotations

import collections
import gc
import random
import time
import weakref

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhopper.histories
from conftest import space_family
from qhopper import (
    CycInt,
    Event,
    HistorySpace,
    InfeasibleSizeError,
    LatticeSpec,
    SpaceMismatchError,
    amplitude_classes,
    circulation,
    enumerate_histories,
    enumerate_primitive,
    half_hop_count,
    history_amplitude,
    history_index,
    initial_state,
    rest_count,
    root,
    sector_tables,
    visited,
)
from qhopper.errors import LIMITS
from qhopper.histories import bit_indices, check_history_guard, mask_of
from qhopper.model import STATE_LABELS, hop_amplitude
from qhopper.render import value_label


def space(n, steps, label, final):
    spec = LatticeSpec(n, steps)
    return enumerate_histories(spec, initial_state(spec, label), final)


def test_space_sizes(spec3, plus_space):
    unrestricted = enumerate_histories(spec3, plus_space.state, None)
    assert unrestricted.size == 81
    assert plus_space.size == 27
    assert space(2, 1, "ground", None).size == 4


def test_canonical_order_is_little_endian():
    sp = space(3, 2, "ground", None)
    for i, h in enumerate(sp.histories):
        assert history_index(h, 3) == i
    restricted = space(3, 2, "ground", 0)
    for i, h in enumerate(restricted.histories):
        assert restricted.index_of(h) == i
        assert h[-1] == 0


def test_size_guard():
    spec = LatticeSpec(3, 3)
    with pytest.raises(InfeasibleSizeError):
        enumerate_histories(spec, initial_state(spec, "plus"), None, max_histories=16)


def _history_refusal(n, steps, final, limit=LIMITS.max_histories.default) -> str:
    with pytest.raises(InfeasibleSizeError) as err:
        check_history_guard(LatticeSpec(n, steps), final, limit)
    return str(err.value)


def test_the_history_guard_names_a_size_too_large_to_compute_as_a_power():
    # up to F * (bit_length(n) - 1) = 2^20 the size n^F is computed and given by bit length
    assert "space of 2^1661953..2^1661954 histories" in _history_refusal(3, 1 << 20, 0)
    assert _history_refusal(3, (1 << 20) + 1, 0) == (
        "space of 3^1048577 histories exceeds the max_histories guard of 16777216; "
        "raise it with --max-histories or max_histories="
    )
    assert "space of 3^1048577 histories" in _history_refusal(3, 1 << 20, None)
    start = time.perf_counter()
    assert "space of 3^10000000 histories" in _history_refusal(3, 10**7, 0)
    assert "space of 1000000000^10000000 histories" in _history_refusal(10**9, 10**7, 0)
    assert time.perf_counter() - start < 0.1
    # a limit of more than 2^20 bits is compared exactly up to its own bit length
    limit = 1 << (1 << 21)
    assert check_history_guard(LatticeSpec(2, 1 << 21), 0, limit) == limit
    assert "space of 2^2097153 histories" in _history_refusal(2, (1 << 21) + 1, 0, limit)
    assert "space of 2^2097154 histories" in _history_refusal(2, (1 << 21) + 2, 0, limit)


def test_one_hop_phase_per_displacement(monkeypatch):
    calls = []

    def counted(spec, x, x2):
        calls.append((x, x2))
        return hop_amplitude(spec, x, x2)

    monkeypatch.setattr(qhopper.histories, "hop_amplitude", counted)
    for sp in space_family(max_histories=27):
        calls.clear()
        rebuilt = enumerate_histories(sp.spec, sp.state, sp.final)
        assert len(calls) <= sp.spec.n
        for sites, amp in zip(rebuilt.histories, rebuilt.amps):
            expect = sp.state.amps[sites[0]].embed(sp.order)
            for x, x2 in zip(sites, sites[1:]):
                expect = expect * hop_amplitude(sp.spec, x, x2).embed(sp.order)
            assert amp == expect


def _enumerate_counting_embeds(monkeypatch, spec, state, final):
    """The space, and how many amplitudes `enumerate_histories` embedded."""
    embeds, embed = [], CycInt.embed

    def counted(a, order):
        embeds.append(order)
        return embed(a, order)

    with monkeypatch.context() as m:
        m.setattr(CycInt, "embed", counted)
        sp = enumerate_histories(spec, state, final)
    return sp, len(embeds)


def _assert_one_amplitude_per_key(sp):
    """Histories sharing a start site and a hop exponent mod the phase order
    share one amplitude object, and no other history holds it."""
    square, p = sp.spec.hop_exponents, sp.spec.phase_order
    objects = collections.defaultdict(set)
    for sites, amp in zip(sp.histories, sp.amps):
        e = sum(square[y - x] for x, y in zip(sites, sites[1:])) % p
        objects[sites[0], e].add(id(amp))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len({id(a) for a in sp.amps}) == len(objects)


def test_each_start_amplitude_is_embedded_once_and_turned_once_per_key(monkeypatch):
    for sp in space_family(max_histories=81):
        rebuilt, embeds = _enumerate_counting_embeds(monkeypatch, sp.spec, sp.state, sp.final)
        assert embeds == sp.spec.n
        _assert_one_amplitude_per_key(rebuilt)


def test_a_wide_one_step_lattice_builds_only_the_amplitudes_it_holds(monkeypatch):
    # the space holds one history per start site; a table of every turned
    # start amplitude would be 300 * 600 amplitudes of 600 coefficients
    spec = LatticeSpec(300, 1)
    start = time.perf_counter()
    sp, embeds = _enumerate_counting_embeds(monkeypatch, spec, initial_state(spec, "plus"), 0)
    assert time.perf_counter() - start < 1.0
    assert embeds == 300
    _assert_one_amplitude_per_key(sp)
    for i in random.Random(34).sample(range(sp.size), 8):
        expect = history_amplitude(sp, sp.histories[i])
        assert (sp.amps[i].order, sp.amps[i].coeffs) == (expect.order, expect.coeffs)


def _assert_matches_oracle(sp):
    """Every amplitude equals `history_amplitude`'s CycInt product, with the
    same coefficients, and every history sits at its `history_index`."""
    n = sp.spec.n
    assert sp.size == n ** (sp.spec.steps + (sp.final is None))
    for i, (sites, amp) in enumerate(zip(sp.histories, sp.amps)):
        expect = history_amplitude(sp, sites)
        assert (amp.order, amp.coeffs) == (expect.order, expect.coeffs)
        if sp.final is None:
            assert history_index(sites, n) == i
        else:
            assert sites[-1] == sp.final
            assert history_index(sites[:-1], n) == i


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("steps", range(1, 4))
def test_enumeration_equals_the_amplitude_oracle(n, steps):
    spec = LatticeSpec(n, steps)
    for label in STATE_LABELS:
        state = initial_state(spec, label)
        for final in (None, *range(n)):
            _assert_matches_oracle(enumerate_histories(spec, state, final))


@st.composite
def custom_spaces(draw):
    """A custom state on 2 to 5 sites: zero terms, and terms of orders
    that differ from the phase order (an order-n root sits inside the
    phase order 2n when n is even; orders 4 and 5 widen the lcm)."""
    n = draw(st.integers(min_value=2, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=3))
    spec = LatticeSpec(n, steps)

    def term(order):
        coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=order,
                          max_size=order)
        return coeffs.map(lambda cs: CycInt(order, cs))

    orders = st.sampled_from(sorted({1, n, spec.phase_order, 4, 5}))
    amps = draw(st.lists(
        st.one_of(st.just(CycInt.zero(1)), orders.flatmap(term)), min_size=n, max_size=n,
    ).filter(lambda xs: not all(x.is_zero() for x in xs)))
    final = draw(st.sampled_from((None, *range(n))))
    return enumerate_histories(spec, initial_state(spec, "custom", tuple(amps)), final)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(custom_spaces())
def test_enumeration_of_custom_states_equals_the_amplitude_oracle(sp):
    _assert_matches_oracle(sp)


def test_resting_history_amplitude(plus_space):
    assert history_amplitude(plus_space, (0, 0, 0, 0)) == 1


def test_cycle_history_amplitude(plus_space):
    # one full lap: three hops of phase w on top of a unit start amplitude
    assert history_amplitude(plus_space, (0, 1, 2, 0)) == 1


def test_initial_phase_carries_through(plus_space):
    assert history_amplitude(plus_space, (1, 1, 1, 1)) == root(3, 1)


def test_ground_amplitude_ignores_start_site():
    sp = space(3, 3, "ground", None)
    for shape in [(0, 1, 2, 2), (0, 0, 1, 0), (0, 2, 1, 1)]:
        amps = [
            history_amplitude(sp, tuple((start + d) % 3 for d in shape))
            for start in range(3)
        ]
        assert amps[0] == amps[1] == amps[2]


def test_amplitude_class_counts(plus_classes, ground_classes):
    w, wb = root(3, 1), root(3, 2)
    for classes in (plus_classes, ground_classes):
        counts = {}
        for c in classes.classes:
            if c.value == 1:
                counts["one"] = c.count
            elif c.value == w:
                counts["w"] = c.count
            elif c.value == wb:
                counts["wb"] = c.count
        assert counts == {"one": 9, "w": 6, "wb": 12}


def test_classes_partition_space(plus_classes):
    union = 0
    total = 0
    for c in plus_classes.classes:
        assert union & c.members == 0
        union |= c.members
        total += c.count
    assert union == plus_classes.space.universe_mask
    assert total == plus_classes.space.size


def test_one_step_ground_classes():
    classes = amplitude_classes(space(3, 1, "ground", 0))
    labels = [(value_label(c.value), c.count) for c in classes.classes]
    assert labels == [("1", 1), ("ω", 2)]


def test_class_membership_differs_between_states(plus_classes, ground_classes):
    plus_one = next(c.members for c in plus_classes.classes if c.value == 1)
    ground_one = next(c.members for c in ground_classes.classes if c.value == 1)
    assert plus_one != ground_one


# -- per-history observables -----------------------------------------------------


def test_circulation_full_lap():
    assert circulation((0, 1, 2, 0), 3) == 3
    assert rest_count((0, 1, 2, 0)) == 0
    assert visited((0, 1, 2, 0)) == {0, 1, 2}


def test_circulation_resting():
    assert circulation((0, 0, 0, 0), 3) == 0
    assert rest_count((0, 0, 0, 0)) == 3
    assert visited((0, 0, 0, 0)) == {0}


def test_circulation_cancellation():
    # backward, forward, rest
    assert circulation((0, 2, 0, 0), 3) == 0
    assert rest_count((0, 2, 0, 0)) == 1


def test_half_hops_are_neutral():
    assert circulation((0, 2, 0), 4) == 0
    assert half_hop_count((0, 2, 0), 4) == 2
    assert half_hop_count((0, 1, 2), 4) == 0
    assert half_hop_count((0, 1, 2, 0), 3) == 0


def test_reflection_negates_circulation():
    sp = space(3, 3, "ground", None)
    for h in sp.histories:
        mirrored = tuple((3 - s) % 3 for s in h)
        assert circulation(mirrored, 3) == -circulation(h, 3)
        assert rest_count(mirrored) == rest_count(h)


# -- events ------------------------------------------------------------------------


def test_event_basics(plus_space):
    e = Event.from_indices(plus_space, [0, 3, 5])
    assert e.count == 3
    assert e.indices() == (0, 3, 5)
    assert e.issubset(Event.full(plus_space))
    assert Event.empty(plus_space).issubset(e)
    assert (e | e.complement()).members == plus_space.universe_mask
    assert (e & e.complement()).count == 0
    assert (e - Event.from_indices(plus_space, [3])).indices() == (0, 5)


def test_event_bounds(plus_space):
    with pytest.raises(ValueError):
        Event.from_indices(plus_space, [27])
    with pytest.raises(ValueError):
        Event(plus_space, 1 << 27)


def test_events_from_different_spaces_do_not_mix(plus_space, ground_space):
    with pytest.raises(SpaceMismatchError):
        Event.full(plus_space) | Event.full(ground_space)


def test_classified_space_is_freed():
    sp = space(3, 3, "plus", 0)
    sector_tables(amplitude_classes(sp))
    coevents = enumerate_primitive(sp)
    ref = weakref.ref(sp)
    del sp, coevents
    gc.collect()
    assert ref() is None


def test_classes_equal_the_one_bit_loop_on_every_small_space():
    for sp in space_family(max_histories=81):
        classes = amplitude_classes(sp)
        got = [(c.final, c.value.canonical(), c.members, c.count) for c in classes.classes]
        assert got == oracles.amplitude_classes_per_bit(sp)
        assert list(sector_tables(classes)) == sorted({c.final for c in classes.classes})


def unshared_amplitudes(sp):
    """The same space with one fresh `history_amplitude` object per history:
    no object is shared, and equal values may differ in their raw vectors."""
    amps = tuple(history_amplitude(sp, h) for h in sp.histories)
    return HistorySpace(sp.spec, sp.state, sp.final, sp.histories, amps, sp.order)


def custom_space(n, steps, amps, final):
    spec = LatticeSpec(n, steps)
    return enumerate_histories(spec, initial_state(spec, "custom", amps), final)


# on two sites the phase ring has order 4: 1 + i beside a zero term written
# as 1 + z^2; and 1 beside i written as 2i + i^3, so that histories from
# sites 0 and 1 hold one value in two raw vectors
ZERO_TERM = (CycInt(4, (1, 1, 0, 0)), CycInt(4, (1, 0, 1, 0)))
TWO_FORMS = (CycInt.one(4), CycInt(4, (0, 2, 0, 1)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(custom_spaces())
@example(unshared_amplitudes(space(3, 3, "standing", 1)))
@example(unshared_amplitudes(custom_space(2, 3, ZERO_TERM, None)))
@example(unshared_amplitudes(custom_space(2, 3, TWO_FORMS, None)))
def test_classes_of_custom_states_equal_the_one_bit_loop(sp):
    classes = amplitude_classes(sp)
    got = [(c.final, c.value.canonical(), c.members, c.count) for c in classes.classes]
    assert got == oracles.amplitude_classes_per_bit(sp)


def test_bit_helpers_equal_the_one_bit_loops():
    rng = random.Random(13)
    for size in (0, 1, 7, 8, 9, 63, 64, 65, 300, 5000, 70000):
        for density in (0.001, 0.1, 0.9):
            indices = sorted(i for i in range(size) if rng.random() < density)
            mask = oracles.mask_per_bit(indices)
            assert mask_of(indices) == mask_of(reversed(indices)) == mask
            assert list(bit_indices(mask)) == oracles.bit_indices_per_bit(mask) == indices
    # either side of the switch from the bit loop to the byte scan at 2^64
    for bits in (63, 64, 65):
        for mask in ((1 << bits) - 1, 1 << (bits - 1), 1 << (bits - 1) | 1):
            assert mask.bit_length() == bits
            assert list(bit_indices(mask)) == oracles.bit_indices_per_bit(mask)
    sp = space(3, 3, "plus", 0)
    assert Event.from_indices(sp, [26, 0, 9, 9]).members == oracles.mask_per_bit([0, 9, 26])


def test_thirteen_step_plus_space_groups_in_less_than_twice_its_enumeration():
    # timed against enumerating the same space in this process, so that
    # host load slows both: grouping takes about half the enumeration's
    # time, and grouping with one OR per member into a growing mask, which
    # is quadratic, about ten times it
    start = time.perf_counter()
    sp = space(3, 13, "plus", 0)  # 1 594 323 histories
    enumerated = time.perf_counter() - start
    start = time.perf_counter()
    classes = qhopper.histories._group_by_amplitude(sp)
    grouped = time.perf_counter() - start
    assert sum(classes.counts) == sp.size
    assert grouped < 2 * enumerated
