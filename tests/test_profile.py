"""Whole-ensemble figures from primitive profiles, held to explicit expansion."""
from __future__ import annotations

import itertools
import random

import oracles
import pytest
from conftest import space_family
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhopper import (
    LatticeSpec,
    SpaceMismatchError,
    average_net_circulation,
    classify_restlessness,
    common_supports,
    count_primitive,
    discrimination_report,
    enumerate_histories,
    enumerate_primitive,
    enumerate_primitive_bruteforce,
    event_by_name,
    event_verdicts,
    initial_state,
    net_circulation,
    overlap,
)
from qhopper.analysis import (
    ensemble_average_circulation,
    ensemble_event_tally,
    ensemble_positive_only_circulations,
    ensemble_restlessness,
    positive_only_circulations,
    support_size_histogram,
)
from qhopper.cli import _build_state, _read_state
from qhopper.coevents import primitive_profile
from qhopper.model import STATE_LABELS

ORACLE_LATTICES = ((3, 2), (3, 3), (4, 2), (2, 3))


def event_names(n: int) -> list[str]:
    return [
        "never_moves",
        "never_rests",
        "rests_exactly_once",
        "avoids_any_site",
        "circulates_positive_only",
        *(f"avoids_site:{s}" for s in range(n)),
        *(f"terminates_at:{s}" for s in range(n)),
    ]


def check_against_expansion(space):
    """Every closed form of the space's profile against its expanded ensemble."""
    profile = primitive_profile(space)
    ensemble = enumerate_primitive(space)
    assert profile.count == len(ensemble) == count_primitive(space)
    assert profile.size_histogram() == support_size_histogram(ensemble)
    assert profile.total(space.circulations) == sum(map(net_circulation, ensemble))
    if ensemble:
        assert ensemble_average_circulation(profile) == average_net_circulation(ensemble)
    else:
        with pytest.raises(ValueError):
            ensemble_average_circulation(profile)
    assert ensemble_restlessness(profile) == classify_restlessness(ensemble)
    assert ensemble_positive_only_circulations(profile) == positive_only_circulations(
        space, ensemble
    )
    for name in event_names(space.spec.n):
        event = event_by_name(space, name)
        v = event_verdicts(ensemble, event, with_complement=True)
        assert ensemble_event_tally(profile, event) == (
            v.affirmed, v.complement_affirmed, v.both_denied
        )
        assert profile.expand(event.members) == [
            phi for phi in ensemble if phi.evaluate(event)
        ]
    rng = random.Random(space.size)
    for _ in range(3):
        table = [rng.randrange(-3, 4) for _ in range(space.size)]
        assert profile.total(table) == sum(
            sum(table[i] for i in phi.indices()) for phi in ensemble
        )
        one = rng.randrange(1 << space.size)
        rest = rng.randrange(1 << space.size) & ~one
        assert profile.count_one_of(one, rest) == sum(
            1
            for phi in ensemble
            if phi.size >= 2
            and (phi.support.members & one).bit_count() == 1
            and phi.support.members & ~(one | rest) == 0
        )
    return profile, ensemble


def explicit_shared(ensemble, target_ensemble, shift: int) -> int:
    """Supports whose rotation by `shift` is a support of the target ensemble."""
    target = {phi.support for phi in target_ensemble}
    space = target_ensemble[0].space if target_ensemble else None
    if space is None:
        return 0
    return sum(1 for phi in ensemble if oracles.rotate_support(phi, shift, space) in target)


def rotation_map(space, target, shift: int) -> list[int]:
    """Index in `target` of each history of `space` rotated by `shift`, by site tuple."""
    n = space.spec.n
    return [target.index_of(oracles.rotate_sites(h, n, shift)) for h in space.histories]


def bruteforce_rows(space) -> list[tuple[int, ...]]:
    """The brute force's supports as index tuples, sorted: canonical index order."""
    brute = enumerate_primitive_bruteforce(space, max_subsets=1 << space.size)
    return sorted(phi.indices() for phi in brute)


def rows_mapped_into(rows, index_map, target_rows) -> list[tuple[int, ...]]:
    """The rows, in their order, whose image under `index_map` is a target row."""
    targets = set(target_rows)
    return [row for row in rows if tuple(sorted(index_map[i] for i in row)) in targets]


def mixes_classes(profile) -> bool:
    """True iff some minimal vector takes members from two or more classes."""
    return any(sum(1 for k in vec if k) > 1 for vec in profile.minimal)


def check_rows_against_bruteforce(space):
    """Rows, rows inside every named event, and the coevents `expand` wraps
    them in, all against the brute force's supports."""
    profile = primitive_profile(space)
    rows = bruteforce_rows(space)
    assert profile.supports() == rows
    for name in event_names(space.spec.n):
        members = event_by_name(space, name).members
        inside = [row for row in rows if all(members >> i & 1 for i in row)]
        assert profile.supports(members) == inside
        assert [phi.indices() for phi in profile.expand(members)] == inside
    return profile, rows


def test_support_rows_equal_the_bruteforce_on_every_space_under_its_guard():
    # every fixed-final space of at most 20 histories: 2^20 subsets, the
    # brute force's default guard
    spaces = [sp for sp in space_family(max_histories=20) if sp.final is not None]
    for n, steps in ((4, 2), (2, 4)):
        spec = LatticeSpec(n, steps)
        spaces += [
            enumerate_histories(spec, initial_state(spec, label), final)
            for label in STATE_LABELS
            for final in range(n)
        ]
    assert {(sp.spec.n, sp.spec.steps) for sp in spaces} == {
        (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2)
    }
    for space in spaces:
        check_rows_against_bruteforce(space)


# the standing wave's minimal vectors take members from several classes,
# so its rows are merged from several classes' combinations
STANDING_MIXED = ((3, 2, 1), (3, 2, 2), (3, 3, 0), (3, 3, 1), (3, 3, 2))


@pytest.mark.parametrize(
    "n, steps, final", STANDING_MIXED, ids=[f"n{n}-T{t}-f{f}" for n, t, f in STANDING_MIXED]
)
def test_standing_rows_merged_across_classes_equal_the_bruteforce(n, steps, final):
    spec = LatticeSpec(n, steps)
    space = enumerate_histories(spec, initial_state(spec, "standing"), final)
    profile, rows = check_rows_against_bruteforce(space)
    assert mixes_classes(profile)
    for label in ("ground", "plus", "minus"):
        other = primitive_profile(enumerate_histories(spec, initial_state(spec, label), final))
        identity = list(range(space.size))
        assert profile.shared_supports(other) == rows_mapped_into(
            rows, identity, other.supports()
        )


@pytest.mark.parametrize("lattice", ((3, 2), (3, 3), (4, 2)), ids=["n3-T2", "n3-T3", "n4-T2"])
@pytest.mark.parametrize("label", ("ground", "plus", "minus"))
def test_shared_supports_under_rotation_are_the_rows_mapped_onto_rows(lattice, label):
    # these ensembles are rotation invariant, so every row maps onto a row of
    # the shifted final site, and the listing keeps this space's order
    spec = LatticeSpec(*lattice)
    state = initial_state(spec, label)
    profiles = [primitive_profile(enumerate_histories(spec, state, f)) for f in range(spec.n)]
    for final, profile in enumerate(profiles):
        for shift in range(1, spec.n):
            target = profiles[(final + shift) % spec.n]
            index_map = rotation_map(profile.space, target.space, shift)
            shared = profile.shared_supports(target, index_map)
            assert shared == rows_mapped_into(profile.supports(), index_map, target.supports())
            assert shared == profile.supports()


PERMUTED_LATTICES = ((3, 2), (3, 3), (2, 3), (2, 4), (4, 2))


def seeded_permutations(size: int, rng: random.Random, k: int = 6) -> list[list[int]]:
    """Permutations of range(size): every other one a few transpositions of
    the identity, so that some rows still map onto rows, the rest shuffles."""
    perms = []
    for m in range(k):
        perm = list(range(size))
        if m % 2:
            rng.shuffle(perm)
        else:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(size), 2)
                perm[i], perm[j] = perm[j], perm[i]
        perms.append(perm)
    return perms


@pytest.mark.parametrize(
    "lattice", PERMUTED_LATTICES, ids=[f"n{n}-T{t}" for n, t in PERMUTED_LATTICES]
)
def test_shared_supports_under_any_permutation_are_the_rows_mapped_onto_rows(lattice):
    spec = LatticeSpec(*lattice)
    profiles = {
        label: primitive_profile(enumerate_histories(spec, initial_state(spec, label), 0))
        for label in STATE_LABELS
    }
    rng = random.Random(100 * spec.n + spec.steps)
    mapped = 0
    for a, b in itertools.product(STATE_LABELS, repeat=2):
        p, q = profiles[a], profiles[b]
        for index_map in seeded_permutations(p.space.size, rng):
            rows = rows_mapped_into(p.supports(), index_map, q.supports())
            assert p.shared(q, index_map) == len(rows)
            assert p.shared_supports(q, index_map) == rows
            mapped += bool(rows)
    assert mapped  # some maps keep rows on rows


def test_closed_forms_match_expansion_on_every_family_space():
    spaces = [sp for sp in space_family(max_histories=27) if sp.final is not None]
    assert {(sp.spec.n, sp.spec.steps) for sp in spaces} >= {(2, 3), (3, 3)}
    for space in spaces:
        check_against_expansion(space)


@settings(max_examples=40, deadline=None)
@given(
    lattice=st.sampled_from(((2, 2), (2, 3), (3, 2), (4, 2))),
    terms=st.lists(
        st.tuples(st.integers(0, 7), st.integers(-2, 2)), min_size=4, max_size=4
    ),
    final=st.integers(0, 3),
    shift=st.integers(1, 3),
)
@example(lattice=(4, 2), terms=[(0, 1), (1, 0), (2, -1), (3, 2)], final=1, shift=2)
@example(lattice=(3, 2), terms=[(0, 1), (0, 0), (0, 2), (0, 0)], final=0, shift=1)
def test_closed_forms_match_expansion_on_custom_states(lattice, terms, final, shift):
    n, steps = lattice
    terms = terms[:n]
    if not any(c for _, c in terms):
        return  # an identically zero state is refused
    spec = LatticeSpec(n, steps)
    text = "custom:" + ",".join(f"{e % n}:{c}" for e, c in terms)
    state = _build_state(spec, _read_state(n, text))
    final, shift = final % n, shift % n
    space = enumerate_histories(spec, state, final)
    profile, ensemble = check_against_expansion(space)

    plus = enumerate_histories(spec, initial_state(spec, "plus"), final)
    explicit = sorted(
        {phi.indices() for phi in ensemble} & {phi.indices() for phi in enumerate_primitive(plus)}
    )
    assert profile.shared(primitive_profile(plus)) == len(explicit)
    assert profile.shared_supports(primitive_profile(plus)) == explicit

    target = enumerate_histories(spec, state, (final + shift) % n)
    index_map = rotation_map(space, target, shift)
    assert profile.shared(
        primitive_profile(target), index_map
    ) == explicit_shared(ensemble, enumerate_primitive(target), shift)

    assert profile.supports() == bruteforce_rows(space)
    assert profile.shared_supports(primitive_profile(target), index_map) == rows_mapped_into(
        profile.supports(), index_map, bruteforce_rows(target)
    )


@pytest.mark.parametrize(
    "lattice", ORACLE_LATTICES, ids=[f"n{n}-T{t}" for n, t in ORACLE_LATTICES]
)
@pytest.mark.parametrize("final", (0, 1))
def test_named_state_overlaps_match_expansion(lattice, final):
    spec = LatticeSpec(*lattice)
    spaces = {
        label: enumerate_histories(spec, initial_state(spec, label), final)
        for label in STATE_LABELS
    }
    ensembles = {label: enumerate_primitive(sp) for label, sp in spaces.items()}
    supports = {label: {phi.indices() for phi in ens} for label, ens in ensembles.items()}
    rep = discrimination_report(spec, STATE_LABELS, final)
    assert rep.counts == {label: len(ens) for label, ens in ensembles.items()}
    for a, b in itertools.combinations(STATE_LABELS, 2):
        explicit = sorted(supports[a] & supports[b])
        assert overlap(spaces[a], spaces[b]) == rep.overlaps[(a, b)] == len(explicit)
        assert common_supports(spaces[a], spaces[b]) == explicit
    for name, per_state in rep.witness_counts.items():
        for label, affirmed in per_state.items():
            event = event_by_name(spaces[label], name)
            assert affirmed == event_verdicts(ensembles[label], event).affirmed


@pytest.mark.parametrize(
    "lattice", ORACLE_LATTICES, ids=[f"n{n}-T{t}" for n, t in ORACLE_LATTICES]
)
@pytest.mark.parametrize("label", STATE_LABELS)
def test_rotation_shared_counts_match_expansion(lattice, label):
    spec = LatticeSpec(*lattice)
    state = initial_state(spec, label)
    spaces = [enumerate_histories(spec, state, f) for f in range(spec.n)]
    profiles = [primitive_profile(sp) for sp in spaces]
    ensembles = [enumerate_primitive(sp) for sp in spaces]
    for final in range(spec.n):
        for shift in range(1, spec.n):
            target = (final + shift) % spec.n
            index_map = rotation_map(spaces[final], spaces[target], shift)
            got = profiles[final].shared(profiles[target], index_map)
            assert got == explicit_shared(ensembles[final], ensembles[target], shift)


def test_listing_shared_supports_is_guarded():
    spec = LatticeSpec(3, 2)
    a, b = (primitive_profile(enumerate_histories(spec, initial_state(spec, lb), 0))
            for lb in ("ground", "plus"))
    assert a.shared(b) == 3
    with pytest.raises(Exception, match="max_supports guard of 2"):
        a.shared_supports(b, max_supports=2)
    with pytest.raises(Exception, match="max_vectors guard of 0"):
        a.shared(b, max_vectors=0)


def named_profile(n: int, steps: int, label: str, final: int):
    spec = LatticeSpec(n, steps)
    return primitive_profile(enumerate_histories(spec, initial_state(spec, label), final))


@pytest.mark.parametrize(
    "a, b",
    [
        ((3, 3, "plus", 0), (3, 2, "plus", 0)),
        ((3, 2, "plus", 0), (3, 3, "plus", 0)),
        ((3, 2, "ground", 0), (3, 2, "ground", 1)),
        ((2, 4, "plus", 0), (4, 2, "plus", 0)),  # 16 histories each
    ],
    ids=["longer-vs-shorter", "shorter-vs-longer", "final-0-vs-1", "same-size-other-lattice"],
)
def test_profiles_over_other_spaces_need_an_index_map(a, b):
    p, q = named_profile(*a), named_profile(*b)
    with pytest.raises(SpaceMismatchError):
        p.shared(q)
    with pytest.raises(SpaceMismatchError):
        p.shared_supports(q)


def test_an_index_map_holds_distinct_indices_of_the_other_space_one_per_history():
    p, q = named_profile(3, 2, "ground", 0), named_profile(3, 2, "plus", 1)
    good = rotation_map(p.space, q.space, 1)
    assert p.shared(q, good) == len(p.shared_supports(q, good))
    too_short, too_long = good[:-1], good + [0]
    outside = [good[:-1] + [q.space.size], good[:-1] + [-1]]
    repeated = good[:-1] + [good[0]]  # two histories onto one
    for bad in (too_short, too_long, *outside, repeated):
        with pytest.raises(ValueError, match="index map"):
            p.shared(q, bad)
        with pytest.raises(ValueError, match="index map"):
            p.shared_supports(q, bad)


def test_count_one_of_refuses_overlapping_bitsets():
    profile = named_profile(3, 2, "plus", 0)
    assert profile.count_one_of(0b1, 0b110) >= 0
    with pytest.raises(ValueError, match="disjoint"):
        profile.count_one_of(0b11, 0b110)


def test_profile_queries_refuse_bitsets_outside_the_space():
    profile = named_profile(3, 2, "plus", 0)
    mask = profile.space.universe_mask
    assert profile.count_within(mask) == profile.count == len(profile.supports(within=mask))
    for bad in (-1, mask + 1, (1 << 40) - 1):
        with pytest.raises(ValueError, match="bitset"):
            profile.count_within(bad)
        with pytest.raises(ValueError, match="bitset"):
            profile.supports(within=bad)
        with pytest.raises(ValueError, match="bitset"):
            profile.count_one_of(bad, 0)
        with pytest.raises(ValueError, match="bitset"):
            profile.count_one_of(0b1, bad & ~1)


def test_total_needs_one_entry_per_history():
    profile = named_profile(3, 2, "plus", 0)
    table = [1] * profile.space.size
    assert profile.total(table) == sum(map(len, profile.supports()))
    for bad in (table[:-1], table + [1]):
        with pytest.raises(ValueError, match="entries"):
            profile.total(bad)
