from __future__ import annotations

import itertools
import math
import random

import pytest

import oracles
import qhopper.measure
from conftest import space_family
from qhopper import (
    CycInt,
    Event,
    HistorySpace,
    InitialState,
    LatticeSpec,
    MultiplicativeCoevent,
    SpaceMismatchError,
    WrongSpaceError,
    amplitude_classes,
    common_supports,
    count_precluded,
    count_precluded_bruteforce,
    count_primitive,
    enumerate_histories,
    enumerate_primitive,
    enumerate_primitive_bruteforce,
    initial_state,
    is_preclusive,
    is_primitive,
    minimal_preclusive_vectors,
    overlap,
)


def class_members(classes, count):
    space = classes.space
    cls = next(c for c in classes.classes if c.count == count)
    return Event(space, cls.members).indices()


# -- evaluation ---------------------------------------------------------------------


def test_full_space_always_happens(plus_space):
    phi = MultiplicativeCoevent(Event.from_indices(plus_space, [1, 2, 3]))
    assert phi.evaluate(Event.full(plus_space))


def test_three_event_configuration(plus_space):
    # A contains the support, B and C do not
    phi = MultiplicativeCoevent(Event.from_indices(plus_space, [4, 5]))
    a = Event.from_indices(plus_space, [3, 4, 5, 6])
    b = Event.from_indices(plus_space, [5, 6, 7])
    c = Event.from_indices(plus_space, [10, 11])
    assert phi.evaluate(a)
    assert not phi.evaluate(b)
    assert not phi.evaluate(c)


def test_empty_event_never_happens(plus_space):
    phi = MultiplicativeCoevent(Event.from_indices(plus_space, [0]))
    assert not phi.evaluate(Event.empty(plus_space))


def test_evaluate_requires_same_space(plus_space, ground_space):
    phi = MultiplicativeCoevent(Event.from_indices(plus_space, [0]))
    with pytest.raises(SpaceMismatchError):
        phi.evaluate(Event.full(ground_space))


# -- preclusivity --------------------------------------------------------------------


def test_seven_copies_are_preclusive(plus_classes):
    ids = class_members(plus_classes, 9)[:7]
    assert is_preclusive(Event.from_indices(plus_classes.space, ids))


def test_balanced_event_is_not_preclusive(plus_classes):
    space = plus_classes.space
    mask = 0
    for c in plus_classes.classes:
        for i in Event(space, c.members).indices()[:6]:
            mask |= 1 << i
    assert not is_preclusive(Event(space, mask))


def test_six_copies_extend_and_fail(plus_classes):
    ids = class_members(plus_classes, 9)[:6]
    assert not is_preclusive(Event.from_indices(plus_classes.space, ids))


def test_empty_support_is_not_preclusive(plus_space):
    assert not is_preclusive(Event.empty(plus_space))


# -- primitivity ---------------------------------------------------------------------


def test_exactly_seven_copies_primitive(plus_classes):
    ids = class_members(plus_classes, 9)[:7]
    assert is_primitive(Event.from_indices(plus_classes.space, ids))


def test_eight_copies_not_primitive(plus_classes):
    ids = class_members(plus_classes, 9)[:8]
    ev = Event.from_indices(plus_classes.space, ids)
    assert is_preclusive(ev)
    assert not is_primitive(ev)


def test_single_history_not_primitive(plus_space):
    assert not is_primitive(Event.from_indices(plus_space, [3]))


# -- fast enumeration ----------------------------------------------------------------


def test_primitive_count_and_sizes(plus_coevents, ground_coevents):
    assert len(plus_coevents) == math.comb(12, 7) + math.comb(9, 7) == 828
    assert len(ground_coevents) == 828
    assert all(phi.size == 7 for phi in plus_coevents)
    assert all(phi.size == 7 for phi in ground_coevents)


def test_supports_stay_within_one_class(plus_classes, plus_coevents):
    masks = [c.members for c in plus_classes.classes]
    for phi in plus_coevents:
        assert any(phi.support.members & ~m == 0 for m in masks)


def test_minimal_vectors_are_seven_of_a_feasible_class(plus_classes):
    vecs = minimal_preclusive_vectors(plus_classes)
    counts = tuple(c.count for c in plus_classes.classes)
    expected = []
    for pos, count in enumerate(counts):
        if count >= 7:
            vec = [0, 0, 0]
            vec[pos] = 7
            expected.append(tuple(vec))
    assert sorted(vecs) == sorted(expected)


def test_count_primitive_matches_expansion(plus_space):
    assert count_primitive(plus_space) == 828


def test_every_enumerated_support_is_primitive(plus_coevents):
    for phi in plus_coevents[::97]:
        assert is_primitive(phi.support)


def test_no_support_contains_another(plus_coevents):
    masks = [phi.support.members for phi in plus_coevents[::53]]
    for a, b in itertools.combinations(masks, 2):
        assert a & ~b != 0 and b & ~a != 0


def test_class_exchange_symmetry(plus_classes):
    # swapping two same-class histories maps primitive supports to primitive supports
    space = plus_classes.space
    members = class_members(plus_classes, 9)
    inside, outside = members[:7], members[7]
    support = Event.from_indices(space, inside)
    assert is_primitive(support)
    swapped = (support.members ^ (1 << inside[0])) | (1 << outside)
    assert is_primitive(Event(space, swapped))


def test_enumerate_primitive_requires_fixed_final(spec3):
    sp = enumerate_histories(spec3, initial_state(spec3, "plus"), None)
    with pytest.raises(WrongSpaceError):
        enumerate_primitive(sp)


def test_single_class_space_yields_singletons():
    spec = LatticeSpec(5, 1)
    state = InitialState("custom", tuple(CycInt.one(3) for _ in range(5)))
    sp = HistorySpace(
        spec, state, 0, tuple((i, 0) for i in range(5)),
        tuple(CycInt.one(3) for _ in range(5)), 3,
    )
    coevs = enumerate_primitive(sp)
    assert [phi.indices() for phi in coevs] == [(i,) for i in range(5)]
    assert all(phi.size == 1 for phi in coevs)


def test_fast_output_is_in_canonical_index_order():
    # standing supports mix sizes (up to 4..15 at (3,3)), so the order is
    # lexicographic on index tuples, not by size first
    spaces = [sp for sp in space_family(max_histories=27) if sp.final is not None]
    spec = LatticeSpec(4, 2)
    spaces += [enumerate_histories(spec, initial_state(spec, "plus"), f) for f in range(4)]
    for sp in spaces:
        got = [phi.indices() for phi in enumerate_primitive(sp)]
        assert got == sorted(set(got))


# -- brute force and mutual oracles ---------------------------------------------------


def test_bruteforce_agrees_with_fast_on_two_site_space():
    spec = LatticeSpec(2, 2)
    sp = enumerate_histories(spec, initial_state(spec, "ground"), 0)
    fast = sorted(phi.indices() for phi in enumerate_primitive(sp))
    brute = sorted(phi.indices() for phi in enumerate_primitive_bruteforce(sp))
    assert fast == brute == [(1,), (3,)]


def test_bruteforce_agrees_with_first_principles_oracle():
    for sp in space_family(max_histories=9):
        brute = sorted(phi.indices() for phi in enumerate_primitive_bruteforce(sp))
        assert brute == sorted(oracles.primitive_supports(sp))


def test_bruteforce_reaches_the_paper_space(plus_space, plus_coevents):
    brute = enumerate_primitive_bruteforce(plus_space, max_subsets=1 << 27)
    assert len(brute) == 828
    assert sorted(phi.indices() for phi in brute) == [
        phi.indices() for phi in plus_coevents
    ]


def test_bruteforces_read_no_kernel_table(monkeypatch):
    spaces = [
        enumerate_histories(spec, initial_state(spec, label), final)
        for spec, label, final in [
            (LatticeSpec(3, 2), "plus", 0),
            (LatticeSpec(2, 2), "standing", None),
            (LatticeSpec(2, 3), "ground", 1),
        ]
    ]
    expected = [
        (count_precluded(amplitude_classes(sp)), oracles.primitive_supports(sp))
        for sp in spaces
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a brute force read the kernel tables")

    for name in ("sector_tables", "_kernel_walk"):
        fn = getattr(qhopper.measure, name)
        for mod in (qhopper, qhopper.measure, qhopper.coevents):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, refuse)
    for sp, (precluded, supports) in zip(spaces, expected):
        assert count_precluded_bruteforce(sp) == precluded
        brute = enumerate_primitive_bruteforce(sp)
        assert sorted(phi.indices() for phi in brute) == sorted(supports)


def test_unrestricted_sectors_are_contiguous_runs():
    # enumerate_primitive_bruteforce takes final site f's histories to be
    # the indices f * n^T .. (f + 1) * n^T - 1
    for sp in space_family():
        if sp.final is None:
            run = sp.spec.n ** sp.spec.steps
            assert [h[-1] for h in sp.histories] == [i // run for i in range(sp.size)]


def test_bruteforce_refuses_large_spaces_by_default(plus_space):
    from qhopper import InfeasibleSizeError

    with pytest.raises(InfeasibleSizeError):
        enumerate_primitive_bruteforce(plus_space)  # 2^27 subsets > default cap


def test_bruteforce_output_is_size_then_index_ordered():
    spec = LatticeSpec(2, 3)
    sp = enumerate_histories(spec, initial_state(spec, "standing"), None)
    out = enumerate_primitive_bruteforce(sp)
    keys = [(phi.size, phi.indices()) for phi in out]
    assert keys == sorted(keys)


def test_all_space_supports_have_sharp_final_position():
    spec = LatticeSpec(3, 1)
    sp = enumerate_histories(spec, initial_state(spec, "plus"), None)
    for phi in enumerate_primitive_bruteforce(sp):
        finals = {h[-1] for h in phi.trajectories()}
        assert len(finals) == 1


def test_all_space_sharp_final_at_elevated_cap():
    # 27 histories, 2**27 subsets
    spec = LatticeSpec(3, 2)
    sp = enumerate_histories(spec, initial_state(spec, "plus"), None)
    brute = enumerate_primitive_bruteforce(sp, max_subsets=1 << 27)
    assert all(len({h[-1] for h in phi.trajectories()}) == 1 for phi in brute)
    union = set()
    for f in range(3):
        spf = enumerate_histories(spec, initial_state(spec, "plus"), f)
        union |= {frozenset(phi.trajectories()) for phi in enumerate_primitive(spf)}
    assert union == {frozenset(phi.trajectories()) for phi in brute}


def test_upward_closure_of_preclusivity():
    rng = random.Random(23)
    spaces = space_family(max_histories=16)
    for _ in range(200):
        sp = rng.choice(spaces)
        mask = rng.randrange(1 << sp.size)
        if not is_preclusive(Event(sp, mask)):
            continue
        extra = rng.randrange(1 << sp.size)
        assert is_preclusive(Event(sp, mask | extra))


# -- overlap ------------------------------------------------------------------------


def test_no_overlap_between_ground_and_plus(ground_space, plus_space):
    assert overlap(ground_space, plus_space) == 0


def test_no_overlap_between_plus_and_minus(plus_space, minus_space):
    assert overlap(plus_space, minus_space) == 0


def test_two_step_overlap_is_positive():
    spec = LatticeSpec(3, 2)
    g = enumerate_histories(spec, initial_state(spec, "ground"), 0)
    p = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    shared = common_supports(g, p)
    assert len(shared) > 0
    assert overlap(g, p) == len(shared)
    for ids in shared:
        assert is_primitive(Event.from_indices(g, ids))
        assert is_primitive(Event.from_indices(p, ids))


def test_overlap_requires_matching_spaces(plus_space):
    spec2 = LatticeSpec(3, 2)
    other = enumerate_histories(spec2, initial_state(spec2, "plus"), 0)
    with pytest.raises(SpaceMismatchError):
        overlap(plus_space, other)


def test_enumerate_primitive_dualises_once(monkeypatch, plus_space):
    import qhopper.coevents

    inner, calls = qhopper.coevents._dualise_maxima, []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(qhopper.coevents, "_dualise_maxima", counted)
    assert len(enumerate_primitive(plus_space)) == 828
    assert len(calls) == 1
