from __future__ import annotations

from fractions import Fraction

import oracles
import pytest

from qhopper import (
    CycInt,
    Event,
    LatticeSpec,
    MultiplicativeCoevent,
    average_net_circulation,
    classify_restlessness,
    discrimination_report,
    ensemble_symmetry_report,
    enumerate_histories,
    enumerate_primitive,
    event_by_name,
    event_verdicts,
    initial_state,
    net_circulation,
    rest_profile,
    rotate_coevent,
)
from qhopper.analysis import (
    avoids_any_site_event,
    avoids_site_event,
    circulates_positive_only_event,
    coevent_fields,
    coevent_records,
    never_moves_event,
    never_rests_event,
    rests_exactly_once_event,
    terminates_at_event,
)
from qhopper.errors import SpaceMismatchError
from qhopper.model import STATE_LABELS


def positive_only_coevent(space, coevents):
    event = circulates_positive_only_event(space)
    hits = [phi for phi in coevents if phi.evaluate(event)]
    assert len(hits) == 1
    return hits[0]


def test_coevent_records_carry_exactly_the_coevent_fields(plus_space, ground_space, plus_coevents):
    events = {
        "never_moves": never_moves_event(plus_space),
        "positive": circulates_positive_only_event(plus_space),
    }
    supports = [phi.indices() for phi in plus_coevents]
    records = coevent_records(supports, plus_space, events)
    assert len(records) == len(plus_coevents)
    assert all(tuple(rec) == coevent_fields(events) for rec in records)
    assert coevent_fields(events)[-2:] == ("never_moves", "positive")
    assert sum(rec["positive"] for rec in records) == 1
    # each record holds what the per-coevent functions say of its coevent
    for cid, (rec, phi) in enumerate(zip(records, plus_coevents)):
        assert rec["coevent_id"] == cid
        assert tuple(rec["support"]) == phi.indices()
        assert rec["circulation"] == net_circulation(phi)
        assert tuple(rec["rest_profile"]) == rest_profile(phi)
        for name, event in events.items():
            assert rec[name] == int(phi.evaluate(event))
    with pytest.raises(SpaceMismatchError):
        coevent_records(supports, plus_space, {"other": never_moves_event(ground_space)})


# -- circulation ---------------------------------------------------------------------


def test_counterclockwise_support_circulation(plus_space, plus_coevents):
    phi = positive_only_coevent(plus_space, plus_coevents)
    assert net_circulation(phi) == 12
    profile = sorted(
        sum(1 for t in range(3) if h[t + 1] != h[t]) for h in phi.trajectories()
    )
    assert profile == [1, 1, 1, 2, 2, 2, 3]  # 3x1 + 3x2 + 1x3 hops forward


def test_average_circulation_values(plus_coevents, ground_coevents, minus_coevents):
    assert average_net_circulation(plus_coevents) == Fraction(7, 23)
    assert average_net_circulation(ground_coevents) == 0
    assert average_net_circulation(minus_coevents) == Fraction(-7, 23)


def test_average_of_single_coevent(plus_coevents):
    phi = plus_coevents[0]
    assert average_net_circulation([phi]) == Fraction(net_circulation(phi))


def test_average_requires_nonempty():
    with pytest.raises(ValueError):
        average_net_circulation([])


def test_reflection_symmetric_support_has_zero_circulation(plus_space):
    # the mirror image of each member is also a member, so hops cancel
    mirror_pair = [(0, 1, 2, 0), (0, 2, 1, 0)]
    phi = MultiplicativeCoevent(
        Event.from_indices(plus_space, (plus_space.index_of(h) for h in mirror_pair))
    )
    assert net_circulation(phi) == 0


def test_resting_support_has_zero_circulation(plus_space):
    phi = MultiplicativeCoevent(
        Event.from_indices(plus_space, [plus_space.index_of((0, 0, 0, 0))])
    )
    assert net_circulation(phi) == 0


def test_reflection_pairs_plus_and_minus_ensembles(
    plus_coevents, minus_coevents, minus_space
):
    def mirrored(phi):
        return frozenset(tuple((3 - s) % 3 for s in h) for h in phi.trajectories())

    minus_sets = {frozenset(phi.trajectories()) for phi in minus_coevents}
    assert {mirrored(phi) for phi in plus_coevents} == minus_sets
    for phi in plus_coevents[::101]:
        partner = MultiplicativeCoevent(
            Event.from_indices(
                minus_space, (minus_space.index_of(h) for h in mirrored(phi))
            )
        )
        assert net_circulation(partner) == -net_circulation(phi)


# -- restlessness ---------------------------------------------------------------------


def test_ground_restlessness_buckets(ground_coevents):
    assert classify_restlessness(ground_coevents) == {
        "all_moving": 8,
        "mixed_6v1": 28,
        "rest_once_each": 792,
        "other": 0,
    }


def test_histogram_covers_every_coevent(plus_coevents):
    buckets = classify_restlessness(plus_coevents)
    assert sum(buckets.values()) == len(plus_coevents)


def test_rest_profile_is_sorted(ground_coevents):
    for phi in ground_coevents[::97]:
        profile = rest_profile(phi)
        assert profile == tuple(sorted(profile))


# -- named events and verdicts -----------------------------------------------------------


def test_never_moves_denied_by_all(ground_coevents, ground_space):
    v = event_verdicts(ground_coevents, never_moves_event(ground_space))
    assert v.affirmed == 0
    assert v.denied == 828


def test_never_rests_affirmed_by_eight(ground_coevents, ground_space):
    event = never_rests_event(ground_space)
    assert event.count == 8
    assert event_verdicts(ground_coevents, event).affirmed == 8


def test_avoids_site_never_happens(
    ground_coevents, ground_space, plus_coevents, plus_space
):
    for coevs, sp in [(ground_coevents, ground_space), (plus_coevents, plus_space)]:
        for s in range(3):
            assert event_verdicts(coevs, avoids_site_event(sp, s)).affirmed == 0


def test_anhomomorphism_witness(ground_coevents, ground_space):
    v = event_verdicts(
        ground_coevents, avoids_any_site_event(ground_space), with_complement=True
    )
    # neither "avoids some site" nor "visits every site" happens for these
    assert v.affirmed == 0
    assert v.both_denied > 0


def test_rests_exactly_once_event_size(ground_space):
    assert rests_exactly_once_event(ground_space).count == 12


def test_terminates_at_affirmed_by_whole_ensemble(ground_coevents, ground_space):
    assert (
        event_verdicts(ground_coevents, terminates_at_event(ground_space, 0)).affirmed
        == 828
    )


def test_event_by_name_parses_arguments(ground_space):
    assert event_by_name(ground_space, "avoids_site:1").members == avoids_site_event(
        ground_space, 1
    ).members
    assert event_by_name(ground_space, "terminates_at:0").count == 27
    with pytest.raises(ValueError):
        event_by_name(ground_space, "sings")


# -- rotation ------------------------------------------------------------------------


def test_rotate_identity(ground_coevents):
    phi = ground_coevents[0]
    assert rotate_coevent(phi, 0).support.members == phi.support.members


def test_rotation_moves_final_sector(spec3, ground_space, ground_coevents):
    target = enumerate_histories(spec3, ground_space.state, 1)
    phi = ground_coevents[0]
    rotated = rotate_coevent(phi, 1, target)
    assert {h[-1] for h in rotated.trajectories()} == {1}
    assert net_circulation(rotated) == net_circulation(phi)
    assert {oracles.rotate_sites(h, 3, 1) for h in phi.trajectories()} == set(
        rotated.trajectories()
    )


def test_rotate_coevent_refuses_a_target_with_the_wrong_final(spec3, ground_space, ground_coevents):
    target = enumerate_histories(spec3, ground_space.state, 2)
    with pytest.raises(ValueError):
        rotate_coevent(ground_coevents[0], 1, target)


def test_ground_symmetry_report(spec3):
    report = ensemble_symmetry_report(spec3, "ground")
    assert report.ensemble_size == 3 * 828
    assert report.per_final_counts == {0: 828, 1: 828, 2: 828}
    for shift in (1, 2):
        assert report.shifts[shift].individual_invariant == 0
        assert report.shifts[shift].ensemble_invariant
    assert report.shifts[0].ensemble_invariant


# -- discrimination -------------------------------------------------------------------


def test_discrimination_at_three_steps(spec3):
    rep = discrimination_report(spec3, ("ground", "plus", "minus"), 0)
    assert rep.overlaps[("ground", "plus")] == 0
    assert rep.overlaps[("plus", "minus")] == 0
    assert rep.witness_counts["never_rests"] == {"ground": 8, "plus": 0, "minus": 0}
    assert rep.witness_counts["circulates_positive_only"]["plus"] == 1
    assert rep.witness_counts["circulates_positive_only"]["ground"] == 0
    assert rep.separators["never_rests"] == "ground"
    assert rep.separators["circulates_positive_only"] == "plus"
    # computed data: every rest-once support belongs to the ground ensemble
    assert rep.witness_counts["rests_exactly_once"] == {
        "ground": 792,
        "plus": 0,
        "minus": 0,
    }


def test_discrimination_at_two_steps_finds_common_coevents():
    spec = LatticeSpec(3, 2)
    rep = discrimination_report(spec, ("ground", "plus"), 0)
    assert rep.overlaps[("ground", "plus")] > 0
    assert len(rep.common[("ground", "plus")]) == rep.overlaps[("ground", "plus")]


def test_no_event_separates_a_state_from_itself(spec3):
    rep = discrimination_report(spec3, ("plus", "plus"), 0)
    assert rep.witness_counts["circulates_positive_only"] == {"plus": 1}
    assert set(rep.separators.values()) == {None}
    assert rep.overlaps[("plus", "plus")] == rep.counts["plus"] == 828


def test_standing_state_reportable(spec3):
    rep = discrimination_report(spec3, ("ground", "standing"), 0)
    assert rep.counts["standing"] > 0
    assert ("ground", "standing") in rep.overlaps


# -- index tables against the site-tuple oracles ----------------------------------------


# the paper's lattice at two and three steps, n = 4 (half-lattice hops carry
# sign 0) and n = 2
ORACLE_LATTICES = ((3, 2), (3, 3), (4, 2), (2, 3))


def _check_against_oracles(space):
    coevents = enumerate_primitive(space)
    for phi in coevents:
        assert net_circulation(phi) == oracles.net_circulation(phi)
        assert rest_profile(phi) == oracles.rest_profile(phi)
    for name, event in oracles.rest_events(space).items():
        assert event_by_name(space, name).members == event.members
    n = space.spec.n
    for shift in range(n):
        target = enumerate_histories(space.spec, space.state, (space.final + shift) % n)
        for phi in coevents:
            rotated = rotate_coevent(phi, shift, target)
            assert rotated.support == oracles.rotate_support(phi, shift, target)
    return coevents


@pytest.mark.parametrize(
    "lattice", ORACLE_LATTICES, ids=[f"n{n}-T{t}" for n, t in ORACLE_LATTICES]
)
@pytest.mark.parametrize("label", STATE_LABELS)
def test_index_tables_match_site_tuple_oracles(lattice, label):
    spec = LatticeSpec(*lattice)
    ensembles = []
    for final in range(spec.n):
        space = enumerate_histories(spec, initial_state(spec, label), final)
        ensembles.append(_check_against_oracles(space))
    report = ensemble_symmetry_report(spec, label)
    expected = oracles.rotation_symmetry(ensembles, spec.n)
    assert {
        shift: (sh.individual_invariant, sh.ensemble_invariant)
        for shift, sh in report.shifts.items()
    } == expected


def test_index_tables_match_oracles_with_a_zero_amplitude():
    spec = LatticeSpec(3, 2)
    amps = (CycInt.from_int(1, 3), CycInt.from_int(0, 3), CycInt.from_int(2, 3))
    state = initial_state(spec, "custom", amps)
    sizes = [
        len(_check_against_oracles(enumerate_histories(spec, state, final)))
        for final in range(spec.n)
    ]
    assert all(sizes)


def test_rotate_coevent_on_the_unrestricted_space():
    spec = LatticeSpec(2, 2)
    space = enumerate_histories(spec, initial_state(spec, "plus"))
    for mask in range(1, 1 << space.size, 37):
        phi = MultiplicativeCoevent(Event(space, mask))
        for shift in range(spec.n):
            assert rotate_coevent(phi, shift, space).support == oracles.rotate_support(
                phi, shift, space
            )


def test_rotate_coevent_of_a_full_event_wider_than_64_histories():
    # 243 histories: the support's bitset is read byte by byte, not bit by bit
    spec = LatticeSpec(3, 5)
    state = initial_state(spec, "plus")
    space = enumerate_histories(spec, state, 0)
    phi = MultiplicativeCoevent(Event(space, space.universe_mask))
    for shift in range(spec.n):
        target = enumerate_histories(spec, state, shift)
        assert rotate_coevent(phi, shift, target).support == oracles.rotate_support(
            phi, shift, target
        )
