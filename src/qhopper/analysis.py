"""Statistics and named-event verdicts over ensembles of primitive coevents.

Everything here is exact: circulation totals are integers, averages are
rationals, and event verdicts are subset checks on bitsets.

Two layers answer the same questions.  The per-coevent functions
(`net_circulation`, `classify_restlessness`, `event_verdicts`, ...) take
any sequence of coevents and read per-history index tables built once
per space (`HistorySpace.circulations` and `.rest_counts`).  The
whole-ensemble figures (`ensemble_*`, the symmetry and discrimination
reports) read a `PrimitiveProfile` instead: every figure depends only on
how many histories a support takes from each amplitude class, so it is a
binomial sum over the minimal class vectors and no support is expanded.
Supports are listed, as sorted index tuples, only where they are printed
(positive-only affirmers, common supports, per-coevent rows), each
under the `max_supports` guard.  The per-coevent layer is the oracle the
tests hold the closed forms to.

Coevents are compared across states by history index, which names the
same site tuple whatever the initial state.  A lattice rotation permutes
a space's own digits: T for a fixed-final space, whose final site moves
with them, T + 1 for an unrestricted one.  A hop's phase is
`LatticeSpec.hop_exponents`, and its direction is read from the space's
circulation table.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .coevents import (  # noqa: F401  enumerate_primitive stays importable from here
    MultiplicativeCoevent,
    PrimitiveProfile,
    enumerate_primitive,
    primitive_profile,
)
from .errors import LIMITS, SpaceMismatchError
from .histories import (
    Event,
    HistorySpace,
    Sites,
    bit_indices,
    check_history_guard,
    enumerate_histories,
    mask_of,
    visited,
)
from .model import LatticeSpec, initial_state

__all__ = [
    "named_ensemble",
    "net_circulation",
    "average_net_circulation",
    "positive_only_circulations",
    "support_size_histogram",
    "rest_profile",
    "classify_restlessness",
    "ensemble_average_circulation",
    "ensemble_positive_only_circulations",
    "ensemble_restlessness",
    "EventTally",
    "ensemble_event_tally",
    "never_moves_event",
    "never_rests_event",
    "rests_exactly_once_event",
    "avoids_site_event",
    "avoids_any_site_event",
    "circulates_positive_only_event",
    "terminates_at_event",
    "event_by_name",
    "EventVerdicts",
    "event_verdicts",
    "rotate_coevent",
    "SymmetryReport",
    "ensemble_symmetry_report",
    "DiscriminationReport",
    "discrimination_report",
    "coevent_fields",
    "coevent_rows",
]

RESTLESSNESS_BUCKETS = ("all_moving", "mixed_6v1", "rest_once_each", "other")


# Unbounded on purpose: keys are named states only, and the CLI runs one
# command per process.  A hit passed the same max_histories guard, and a
# refusal raises instead of being cached, so no refusal depends on the memo.
@functools.lru_cache(maxsize=None)
def named_ensemble(
    spec: LatticeSpec, state_label: str, final: int, max_histories: int
) -> PrimitiveProfile:
    """The primitive profile of a named state's fixed-final space, built once
    per process; its space is `profile.space`.

    The package's one holder of named profiles: the symmetry and
    discrimination reports, `compare` and `report` all read them here, and
    none keeps one of its own.
    """
    # refused before the state, of n amplitudes of up to 2n coefficients, is built
    check_history_guard(spec, final, max_histories)
    state = initial_state(spec, state_label)
    return primitive_profile(enumerate_histories(spec, state, final, max_histories=max_histories))


# -- per-coevent statistics ----------------------------------------------------


def net_circulation(phi: MultiplicativeCoevent) -> int:
    """Total forward-minus-backward hops over the support's histories."""
    table = phi.space.circulations
    return sum(table[i] for i in phi.support.iter_indices())


def average_net_circulation(coevents: Sequence[MultiplicativeCoevent]) -> Fraction:
    """Exact rational mean of net circulation over an ensemble."""
    if not coevents:
        raise ValueError("cannot average over an empty ensemble")
    return Fraction(sum(net_circulation(phi) for phi in coevents), len(coevents))


def positive_only_circulations(
    space: HistorySpace, coevents: Sequence[MultiplicativeCoevent]
) -> list[int]:
    """Sorted net circulations of the coevents affirming circulates_positive_only."""
    event = circulates_positive_only_event(space)
    return sorted(net_circulation(phi) for phi in coevents if phi.evaluate(event))


def support_size_histogram(coevents: Iterable[MultiplicativeCoevent]) -> dict[int, int]:
    """Number of coevents per support size, by increasing size."""
    return dict(sorted(Counter(phi.size for phi in coevents).items()))


def rest_profile(phi: MultiplicativeCoevent) -> tuple[int, ...]:
    """Sorted per-history rest counts of the support."""
    table = phi.space.rest_counts
    return tuple(sorted(table[i] for i in phi.support.iter_indices()))


def classify_restlessness(
    coevents: Iterable[MultiplicativeCoevent],
) -> dict[str, int]:
    """Histogram of rest profiles.

    all_moving:     every support history is in constant motion
    mixed_6v1:      exactly one history never moves, all others never rest
    rest_once_each: every support history rests exactly once
    other:          anything else
    """
    hist = {name: 0 for name in RESTLESSNESS_BUCKETS}
    for phi in coevents:
        steps = phi.space.spec.steps
        profile = rest_profile(phi)
        if all(r == 0 for r in profile):
            hist["all_moving"] += 1
        elif all(r == 1 for r in profile):
            hist["rest_once_each"] += 1
        elif (
            len(profile) >= 2
            and profile[-1] == steps
            and all(r == 0 for r in profile[:-1])
        ):
            hist["mixed_6v1"] += 1
        else:
            hist["other"] += 1
    return hist


# -- named events ---------------------------------------------------------------


def _event_where(space: HistorySpace, keep: Callable[[Sites], bool]) -> Event:
    """The event of every history in the space that `keep` accepts."""
    return Event.from_indices(
        space, (i for i, h in enumerate(space.histories) if keep(h))
    )


def _rests_event(space: HistorySpace, rests: int) -> Event:
    """The event of every history resting exactly `rests` times."""
    return Event.from_indices(
        space, (i for i, r in enumerate(space.rest_counts) if r == rests)
    )


def never_moves_event(space: HistorySpace) -> Event:
    return _rests_event(space, space.spec.steps)


def never_rests_event(space: HistorySpace) -> Event:
    return _rests_event(space, 0)


def rests_exactly_once_event(space: HistorySpace) -> Event:
    return _rests_event(space, 1)


def avoids_site_event(space: HistorySpace, site: int) -> Event:
    space.spec.check_site(site)
    return _event_where(space, lambda h: site not in visited(h))


def avoids_any_site_event(space: HistorySpace) -> Event:
    n = space.spec.n
    return _event_where(space, lambda h: len(visited(h)) < n)


def circulates_positive_only_event(space: HistorySpace) -> Event:
    """Histories whose every hop is forward or a rest, with at least one forward hop:
    their circulation counts each hop that is not a rest as +1."""
    steps = space.spec.steps
    return Event.from_indices(
        space,
        (i for i, (c, r) in enumerate(zip(space.circulations, space.rest_counts))
         if c == steps - r > 0),
    )


def terminates_at_event(space: HistorySpace, final: int) -> Event:
    space.spec.check_site(final)
    return _event_where(space, lambda h: h[-1] == final)


_EVENT_BUILDERS = {
    "never_moves": never_moves_event,
    "never_rests": never_rests_event,
    "rests_exactly_once": rests_exactly_once_event,
    "avoids_any_site": avoids_any_site_event,
    "circulates_positive_only": circulates_positive_only_event,
}


def event_by_name(space: HistorySpace, name: str) -> Event:
    """Build a named event; parameterized names use a colon (avoids_site:2)."""
    if name in _EVENT_BUILDERS:
        return _EVENT_BUILDERS[name](space)
    head, sep, arg = name.partition(":")
    if sep:
        if head == "avoids_site":
            return avoids_site_event(space, int(arg))
        if head == "terminates_at":
            return terminates_at_event(space, int(arg))
    raise ValueError(f"unknown event name {name!r}")


class EventVerdicts(NamedTuple):
    """Per-coevent 0/1 verdicts on one event, with ensemble tallies.

    A named tuple, so it compares by value, as a tuple does.
    """

    total: int
    affirmed: int
    verdicts: tuple[bool, ...]
    complement_affirmed: int | None = None
    both_denied: int | None = None  # anhomomorphism witnesses

    @property
    def denied(self) -> int:
        return self.total - self.affirmed


def event_verdicts(
    coevents: Sequence[MultiplicativeCoevent],
    event: Event,
    *,
    with_complement: bool = False,
) -> EventVerdicts:
    """Evaluate one event under every coevent of an ensemble.

    With `with_complement`, also evaluates the complementary event; a
    coevent denying both witnesses that multiplicative coevents are not
    Boolean homomorphisms.
    """
    verdicts = tuple(phi.evaluate(event) for phi in coevents)
    affirmed = sum(verdicts)
    if not with_complement:
        return EventVerdicts(len(coevents), affirmed, verdicts)
    comp = event.complement()
    comp_verdicts = [phi.evaluate(comp) for phi in coevents]
    both_denied = sum(
        1 for a, b in zip(verdicts, comp_verdicts) if not a and not b
    )
    return EventVerdicts(
        len(coevents), affirmed, verdicts, sum(comp_verdicts), both_denied
    )


# -- whole-ensemble figures from a primitive profile -------------------------------
#
# Each equals its per-coevent counterpart above applied to the expanded
# ensemble.  A primitive support is never empty (the empty set is
# precluded), so it lies inside an event or inside its complement, never
# both, and it falls in exactly one restlessness bucket.


def ensemble_average_circulation(profile: PrimitiveProfile) -> Fraction:
    """`average_net_circulation` of the profile's ensemble."""
    if not profile.count:
        raise ValueError("cannot average over an empty ensemble")
    return Fraction(profile.total(profile.space.circulations), profile.count)


def ensemble_positive_only_circulations(profile: PrimitiveProfile) -> list[int]:
    """`positive_only_circulations` of the profile's ensemble; lists only the affirmers."""
    event = circulates_positive_only_event(profile.space)
    table = profile.space.circulations
    return sorted(sum(map(table.__getitem__, row)) for row in profile.supports(event.members))


def ensemble_restlessness(profile: PrimitiveProfile) -> dict[str, int]:
    """`classify_restlessness` of the profile's ensemble.

    all_moving and rest_once_each count the supports inside the event of
    0 and of 1 rests; mixed_6v1 counts those of two or more histories
    with one never moving and the rest never resting; other is what is
    left.
    """
    space = profile.space
    moving = never_rests_event(space).members
    hist = {
        "all_moving": profile.count_within(moving),
        "mixed_6v1": profile.count_one_of(never_moves_event(space).members, moving),
        "rest_once_each": profile.count_within(rests_exactly_once_event(space).members),
    }
    hist["other"] = profile.count - sum(hist.values())
    return {name: hist[name] for name in RESTLESSNESS_BUCKETS}


class EventTally(NamedTuple):
    """How many coevents of an ensemble affirm an event, its complement, or neither."""

    affirmed: int
    complement_affirmed: int
    both_denied: int  # anhomomorphism witnesses


def ensemble_event_tally(profile: PrimitiveProfile, event: Event) -> EventTally:
    """`event_verdicts(..., with_complement=True)`'s tallies for the profile's ensemble."""
    if event.space is not profile.space:
        raise SpaceMismatchError("profile and event live over different spaces")
    affirmed = profile.count_within(event.members)
    complement = profile.count_within(event.complement().members)
    return EventTally(affirmed, complement, profile.count - affirmed - complement)


# -- rotation symmetry -----------------------------------------------------------


def _rotation(n: int, digits: int, shift: int) -> list[int]:
    """Index of each history's rotation by `shift`, by its own index, in a
    space whose index has `digits` base-n digits (its free sites)."""
    perm = [0]
    for t in range(digits):
        place = n**t
        perm = [p + (s + shift) % n * place for s in range(n) for p in perm]
    return perm


def rotate_coevent(
    phi: MultiplicativeCoevent,
    shift: int,
    target_space: HistorySpace | None = None,
) -> MultiplicativeCoevent:
    """Relabel the support's histories by a lattice rotation.

    A fixed-final coevent rotates into the space whose final site is
    shifted accordingly; pass `target_space` to reuse an existing space
    object, otherwise one is enumerated.
    """
    space = phi.space
    new_final = None if space.final is None else (space.final + shift) % space.spec.n
    if target_space is None:
        target_space = enumerate_histories(space.spec, space.state, new_final)
    elif target_space.spec != space.spec or target_space.final != new_final:
        raise ValueError(
            f"rotating by {shift} maps {space!r} into the space with final site "
            f"{new_final} and the same lattice, not into {target_space!r}"
        )
    perm = _rotation(space.spec.n, space.spec.steps + (space.final is None), shift)
    moved = mask_of(perm[i] for i in phi.support.iter_indices())
    return MultiplicativeCoevent(Event(target_space, moved))


class ShiftSymmetry(NamedTuple):
    """One lattice rotation: how many coevents it maps to themselves, and
    whether it maps the ensemble onto itself.  Compares by value, as a tuple."""

    individual_invariant: int
    ensemble_invariant: bool


class SymmetryReport(NamedTuple):
    """Rotation symmetry of a state's all-final-sites primitive ensemble, per
    shift.  Compares by value, as a tuple."""

    state_label: str
    n: int
    steps: int
    per_final_counts: dict[int, int]
    ensemble_size: int
    shifts: dict[int, ShiftSymmetry]


def ensemble_symmetry_report(
    spec: LatticeSpec, state_label: str, *, max_histories: int = LIMITS.max_histories.default
) -> SymmetryReport:
    """Rotation symmetry of the all-final-sites primitive ensemble.

    A rotation by a nonzero shift moves every fixed-final support to
    another final site, so no coevent is its own rotation.  It maps the
    ensemble of final site f into the space of final site f + shift, and
    the whole ensemble is invariant iff every final's ensemble maps onto
    its image's: the supports shared through the rotation number as many
    as both ensembles hold.
    """
    n = spec.n
    profiles = [named_ensemble(spec, state_label, f, max_histories) for f in range(n)]
    counts = [p.count for p in profiles]
    shifts: dict[int, ShiftSymmetry] = {0: ShiftSymmetry(sum(counts), True)}
    for shift in range(1, n):
        index_map = _rotation(n, spec.steps, shift)
        invariant = True
        for f, profile in enumerate(profiles):
            g = (f + shift) % n
            if not counts[f] == counts[g] == profile.shared(profiles[g], index_map):
                invariant = False
                break
        shifts[shift] = ShiftSymmetry(0, invariant)
    return SymmetryReport(
        state_label,
        n,
        spec.steps,
        dict(enumerate(counts)),
        sum(counts),
        shifts,
    )


# -- state discrimination ---------------------------------------------------------


WITNESS_EVENTS = (
    "never_rests",
    "rests_exactly_once",
    "circulates_positive_only",
    "never_moves",
)


class DiscriminationReport(NamedTuple):
    """Pairwise primitive-coevent overlaps between initial states, with
    witnesses: plain values, equal by value.  Its fields are dicts, so it
    does not hash."""

    n: int
    steps: int
    final: int
    states: tuple[str, ...]
    counts: dict[str, int]
    overlaps: dict[tuple[str, str], int]
    witness_counts: dict[str, dict[str, int]]
    separators: dict[str, str | None]


def discrimination_report(
    spec: LatticeSpec,
    state_labels: Sequence[str],
    final: int,
    *,
    max_histories: int = LIMITS.max_histories.default,
) -> DiscriminationReport:
    """Which states share primitive coevents, and which events tell them apart.

    An event separates when exactly one state's ensemble affirms it at
    all; a coevent affirming such an event pins the initial state down.
    The profiles are read from `named_ensemble` and stay there: the report
    holds only the figures, and a caller that lists the supports a pair
    shares takes them from the two profiles (`shared_supports`).
    """
    profiles = {label: named_ensemble(spec, label, final, max_histories) for label in state_labels}
    overlaps: dict[tuple[str, str], int] = {}
    for i, a in enumerate(state_labels):
        for b in state_labels[i + 1 :]:
            overlaps[(a, b)] = profiles[a].shared(profiles[b])
    witness_counts: dict[str, dict[str, int]] = {}
    separators: dict[str, str | None] = {}
    for name in WITNESS_EVENTS:
        per_state = {
            label: profile.count_within(event_by_name(profile.space, name).members)
            for label, profile in profiles.items()
        }
        witness_counts[name] = per_state
        # over the labels as given: a state listed twice never separates from itself
        affirmers = [label for label in state_labels if per_state[label] > 0]
        separators[name] = affirmers[0] if len(affirmers) == 1 else None
    return DiscriminationReport(
        spec.n,
        spec.steps,
        final,
        tuple(state_labels),
        {label: profile.count for label, profile in profiles.items()},
        overlaps,
        witness_counts,
        separators,
    )


def coevent_fields(events: dict[str, Event]) -> tuple[str, ...]:
    """The keys of every coevent record, in order: one 0/1 verdict per event
    follows the coevent's own fields."""
    return ("coevent_id", "support", "circulation", "rest_profile", *events)


def coevent_rows(
    supports: Sequence[tuple[int, ...]],
    space: HistorySpace,
    events: dict[str, Event],
) -> list[tuple]:
    """Each coevent's cells in `coevent_fields` order, one row per support
    (a sorted index tuple of `space`, as `PrimitiveProfile.supports` lists
    them): its id, the support itself, its circulation, its sorted rest
    profile as a list, and one 0/1 verdict per event.

    Circulation and rest profile are lookups in the space's tables.  Bit j
    of a history's event bits says it lies in the j-th event, so the AND of
    the support's bits holds every verdict at once: a coevent affirms an
    event iff its support lies inside it.
    """
    if any(ev.space is not space for ev in events.values()):
        raise SpaceMismatchError("records and events live over different spaces")
    circulations, rests = space.circulations, space.rest_counts
    # event bits of the histories the supports hold, not of the whole space
    bits = dict.fromkeys(itertools.chain.from_iterable(supports), 0)
    listed = mask_of(bits)
    for j, ev in enumerate(events.values()):
        for i in bit_indices(ev.members & listed):
            bits[i] |= 1 << j
    every = (1 << len(events)) - 1

    @functools.cache
    def verdicts(inside: int) -> tuple[int, ...]:
        return tuple(inside >> j & 1 for j in range(len(events)))

    circulation, rest, inside = circulations.__getitem__, rests.__getitem__, bits.__getitem__
    return [
        (cid, row, sum(map(circulation, row)), sorted(map(rest, row)))
        + verdicts(functools.reduce(operator.and_, map(inside, row), every))
        for cid, row in enumerate(supports)
    ]
