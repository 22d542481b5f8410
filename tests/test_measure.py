from __future__ import annotations

import math
import threading

import pytest

import oracles
import qhopper.measure
from qhopper import (
    CycInt,
    Event,
    HistorySpace,
    InfeasibleSizeError,
    InitialState,
    LatticeSpec,
    WrongSpaceError,
    amplitude_classes,
    count_precluded,
    count_precluded_bruteforce,
    enumerate_histories,
    event_sum,
    initial_state,
    is_precluded,
    maximal_zero_count_vectors,
    preclusive_coevent_count_exponent,
    quantal_measure_is_zero,
    sector_sums,
)


def make_space(histories, amps, order, n=5, steps=1, final=0):
    """Fabricate a space directly; used for synthetic class layouts."""
    spec = LatticeSpec(n, steps)
    state = InitialState("custom", tuple(CycInt.one(order) for _ in range(n)))
    return HistorySpace(spec, state, final, tuple(histories), tuple(amps), order)


def triple_event(space):
    """One history from each amplitude class of the 27-history space."""
    classes = amplitude_classes(space)
    picks = [Event(space, c.members).indices()[0] for c in classes.classes]
    return Event.from_indices(space, picks)


# -- event sums -------------------------------------------------------------------


def test_zero_sum_triple(plus_space):
    assert event_sum(triple_event(plus_space)).is_zero()


def test_empty_event_sums_to_zero(plus_space):
    assert event_sum(Event.empty(plus_space)).is_zero()


def test_singleton_sum_is_the_amplitude(plus_space):
    e = Event.from_indices(plus_space, [5])
    assert event_sum(e) == plus_space.amps[5]
    assert not event_sum(e).is_zero()


def test_event_sum_refuses_unrestricted_space(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    with pytest.raises(WrongSpaceError):
        event_sum(Event.full(sp))


# -- sector sums and the measure ----------------------------------------------------


def test_two_singleton_sectors_not_measure_zero(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    e = Event.from_indices(
        sp, [sp.index_of((0, 1, 2, 0)), sp.index_of((1, 2, 0, 1))]
    )
    sums = sector_sums(e)
    assert not sums[0].is_zero()
    assert not sums[1].is_zero()
    assert not quantal_measure_is_zero(e)


def test_zero_triple_in_one_sector_is_measure_zero(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    classes = amplitude_classes(sp)
    sector0 = [c for c in classes.classes if c.final == 0]
    picks = [Event(sp, c.members).indices()[0] for c in sector0[:3]]
    e = Event.from_indices(sp, picks)
    assert oracles.subset_sum_is_zero(sp, e.indices())  # sanity on the pick
    assert quantal_measure_is_zero(e)
    assert is_precluded(e)


def test_zero_triple_plus_stray_history_is_not_measure_zero(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    classes = amplitude_classes(sp)
    sector0 = [c for c in classes.classes if c.final == 0]
    picks = [Event(sp, c.members).indices()[0] for c in sector0[:3]]
    stray = sp.index_of((1, 1, 1, 1))
    e = Event.from_indices(sp, picks + [stray])
    assert not quantal_measure_is_zero(e)


def test_empty_event_is_precluded(plus_space):
    assert is_precluded(Event.empty(plus_space))


def test_balanced_six_six_six_event_is_precluded(plus_classes):
    space = plus_classes.space
    mask = 0
    for c in plus_classes.classes:
        ids = Event(space, c.members).indices()[:6]
        for i in ids:
            mask |= 1 << i
    e = Event(space, mask)
    assert e.count == 18
    assert is_precluded(e)


def test_seven_of_one_class_not_precluded(plus_classes):
    space = plus_classes.space
    big = next(c for c in plus_classes.classes if c.count == 12)
    e = Event.from_indices(space, Event(space, big.members).indices()[:7])
    assert not is_precluded(e)


# -- counting ---------------------------------------------------------------------


def test_precluded_count_matches_published_value(plus_classes, ground_classes):
    assert count_precluded(plus_classes) == 2017807
    assert count_precluded(ground_classes) == 2017807


def test_precluded_count_closed_form(plus_classes):
    closed = sum(
        math.comb(12, k) * math.comb(9, k) * math.comb(6, k) for k in range(7)
    )
    assert count_precluded(plus_classes) == closed


def test_single_nonzero_class_counts_only_empty():
    sp = make_space(
        [(i, 0) for i in range(4)], [CycInt.one(3)] * 4, order=3
    )
    assert count_precluded(amplitude_classes(sp)) == 1


def test_preclusive_coevent_exponent(plus_space, ground_space):
    assert preclusive_coevent_count_exponent(plus_space) == 132199921
    assert preclusive_coevent_count_exponent(ground_space) == 132199921
    assert 134217728 - 2017807 == 132199921


def test_exponent_without_preclusions_is_full():
    spec = LatticeSpec(2, 1)
    sp = enumerate_histories(spec, initial_state(spec, "ground"), 0)
    # amplitudes 1 and i admit no nonempty zero sums
    assert count_precluded(amplitude_classes(sp)) == 1
    assert preclusive_coevent_count_exponent(sp) == (1 << sp.size) - 1


@pytest.mark.parametrize("n, steps", [(3, 2), (2, 3)])
def test_exponent_on_an_unrestricted_space(n, steps):
    spec = LatticeSpec(n, steps)
    sp = enumerate_histories(spec, initial_state(spec, "plus"), None)
    precluded = count_precluded(amplitude_classes(sp))
    assert preclusive_coevent_count_exponent(sp) == (1 << sp.size) - precluded


def test_maximal_zero_vector_is_six_six_six(plus_classes, ground_classes):
    assert maximal_zero_count_vectors(plus_classes) == [(6, 6, 6)]
    assert maximal_zero_count_vectors(ground_classes) == [(6, 6, 6)]


def test_maximal_zero_vectors_refuse_unrestricted(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    with pytest.raises(WrongSpaceError):
        maximal_zero_count_vectors(amplitude_classes(sp))


def test_synthetic_two_class_maximal_vector():
    # values 1 (x2) and -1 (x3): zero sums need equal numbers of each
    amps = [CycInt.one(2)] * 2 + [CycInt(2, (0, 1))] * 3
    sp = make_space([(i, 0) for i in range(5)], amps, order=2)
    classes = amplitude_classes(sp)
    expected_zero = {
        tuple(
            (
                sum(1 for i in combo if i < 2),
                sum(1 for i in combo if i >= 2),
            )
        )
        for combo in oracles.precluded_subsets(sp)
    }
    assert maximal_zero_count_vectors(classes) == [
        max(expected_zero, key=lambda v: (sum(v), v))
    ]
    assert maximal_zero_count_vectors(classes) == [(2, 2)]


def test_supersets_of_maximal_vector_are_not_zero(plus_classes):
    space = plus_classes.space
    mask = 0
    for c in plus_classes.classes:
        for i in Event(space, c.members).indices()[:6]:
            mask |= 1 << i
    base = Event(space, mask)
    assert is_precluded(base)
    for extra in range(space.size):
        if not (mask >> extra) & 1:
            assert not is_precluded(Event(space, mask | (1 << extra)))


def test_disjoint_precluded_sectors_union_is_precluded(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "ground"), None)
    classes = amplitude_classes(sp)

    def zero_triple(final):
        sector = [c for c in classes.classes if c.final == final]
        return [Event(sp, c.members).indices()[0] for c in sector[:3]]

    a = Event.from_indices(sp, zero_triple(0))
    b = Event.from_indices(sp, zero_triple(1))
    assert is_precluded(a) and is_precluded(b)
    assert is_precluded(a | b)


# -- brute force -------------------------------------------------------------------


def test_bruteforce_matches_oracle_on_tiny_spaces():
    for n, steps, label in [(2, 2, "ground"), (2, 1, "plus"), (3, 1, "plus")]:
        spec = LatticeSpec(n, steps)
        for final in [*range(n), None]:
            sp = enumerate_histories(spec, initial_state(spec, label), final)
            if sp.size > 12:
                continue
            assert count_precluded_bruteforce(sp) == oracles.count_precluded(sp)


def test_bruteforce_matches_dp_on_two_site_space():
    spec = LatticeSpec(2, 2)
    sp = enumerate_histories(spec, initial_state(spec, "ground"), 0)
    assert count_precluded_bruteforce(sp) == count_precluded(amplitude_classes(sp))
    assert count_precluded_bruteforce(sp) == 2


def test_bruteforce_verdicts_do_not_use_the_kernel_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute force consulted the kernel walk")

    monkeypatch.setattr(qhopper.measure, "_kernel_walk", refuse)
    spec = LatticeSpec(3, 3)
    sp = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    assert count_precluded_bruteforce(sp) == 2017807


def test_bruteforce_matches_count_on_standing_final_one():
    # the standing wave is not rotation symmetric, so final 1 differs from 0
    spec = LatticeSpec(3, 3)
    sp = enumerate_histories(spec, initial_state(spec, "standing"), 1)
    assert count_precluded_bruteforce(sp) == count_precluded(amplitude_classes(sp))


def test_bruteforce_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the brute force started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = LatticeSpec(3, 3)
    sp = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    assert count_precluded_bruteforce(sp, threads=2) == 2017807


def test_bruteforce_matches_count_on_every_small_named_space():
    answered, refused = 0, []
    for n in range(2, 6):
        for steps in range(1, 5):
            spec = LatticeSpec(n, steps)
            for label in ("ground", "plus", "minus", "standing"):
                for final in [*range(n), None]:
                    sp = enumerate_histories(spec, initial_state(spec, label), final)
                    if sp.size > 27:
                        continue
                    try:
                        got = count_precluded_bruteforce(sp)
                    except InfeasibleSizeError as exc:
                        assert "count-vector lattice" in str(exc)
                        refused.append((n, steps, label, final))
                        continue
                    assert got == count_precluded(amplitude_classes(sp)), (
                        n, steps, label, final)
                    answered += 1
    assert answered == 163
    assert refused == [(3, 2, "standing", None)] + [
        (5, 1, label, None) for label in ("ground", "plus", "minus", "standing")
    ]


def test_bruteforce_respects_cap(plus_space):
    from qhopper import InfeasibleSizeError

    with pytest.raises(InfeasibleSizeError):
        count_precluded_bruteforce(plus_space, max_subsets=1 << 10)


def test_single_class_maximal_vector_is_empty():
    sp = make_space([(i, 0) for i in range(4)], [CycInt.one(3)] * 4, order=3)
    assert maximal_zero_count_vectors(amplitude_classes(sp)) == [(0,)]


def test_binomial_rows_match_math_comb():
    for c in range(201):
        assert qhopper.measure._binomial_row(c) == [math.comb(c, k) for k in range(c + 1)]
