"""Statistics and named-event verdicts over ensembles of primitive coevents.

Everything here is exact: circulation totals are integers, averages are
rationals, and event verdicts are subset checks on bitsets.  Coevents
are compared across states and final sites by their supports' histories
(site tuples), which do not depend on the initial state.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .coevents import MultiplicativeCoevent, enumerate_primitive
from .errors import LIMITS
from .histories import (
    Event,
    HistorySpace,
    Sites,
    circulation,
    enumerate_histories,
    rest_count,
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
    "rotate_sites",
    "rotate_coevent",
    "SymmetryReport",
    "ensemble_symmetry_report",
    "DiscriminationReport",
    "discrimination_report",
    "coevent_records",
]

RESTLESSNESS_BUCKETS = ("all_moving", "mixed_6v1", "rest_once_each", "other")


# Unbounded on purpose: keys are named states only, and the CLI runs one
# command per process.  A hit passed the same max_histories guard, and a
# refusal raises instead of being cached, so no refusal depends on the memo.
@functools.lru_cache(maxsize=None)
def named_ensemble(
    spec: LatticeSpec, state_label: str, final: int, max_histories: int
) -> tuple[HistorySpace, tuple[MultiplicativeCoevent, ...]]:
    """The fixed-final space of a named state and its primitive ensemble, built once."""
    state = initial_state(spec, state_label)
    space = enumerate_histories(spec, state, final, max_histories=max_histories)
    return space, tuple(enumerate_primitive(space))


# -- per-coevent statistics ----------------------------------------------------


def net_circulation(phi: MultiplicativeCoevent) -> int:
    """Total forward-minus-backward hops over the support's histories."""
    n = phi.space.spec.n
    return sum(circulation(sites, n) for sites in phi.trajectories())


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
    return tuple(sorted(rest_count(sites) for sites in phi.trajectories()))


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


def never_moves_event(space: HistorySpace) -> Event:
    steps = space.spec.steps
    return _event_where(space, lambda h: rest_count(h) == steps)


def never_rests_event(space: HistorySpace) -> Event:
    return _event_where(space, lambda h: rest_count(h) == 0)


def rests_exactly_once_event(space: HistorySpace) -> Event:
    return _event_where(space, lambda h: rest_count(h) == 1)


def avoids_site_event(space: HistorySpace, site: int) -> Event:
    space.spec.check_site(site)
    return _event_where(space, lambda h: site not in visited(h))


def avoids_any_site_event(space: HistorySpace) -> Event:
    n = space.spec.n
    return _event_where(space, lambda h: len(visited(h)) < n)


def circulates_positive_only_event(space: HistorySpace) -> Event:
    """Histories whose every hop is forward or a rest, with at least one forward hop."""
    n = space.spec.n

    def qualifies(h: Sites) -> bool:
        forward = 0
        for t in range(len(h) - 1):
            d = (h[t + 1] - h[t]) % n
            if d == 0:
                continue
            if 2 * d < n:
                forward += 1
            else:
                return False
        return forward > 0

    return _event_where(space, qualifies)


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


@dataclass(frozen=True)
class EventVerdicts:
    """Per-coevent 0/1 verdicts on one event, with ensemble tallies."""

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


# -- rotation symmetry -----------------------------------------------------------


def rotate_sites(sites: Sites, n: int, shift: int) -> Sites:
    return tuple((s + shift) % n for s in sites)


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
    n = space.spec.n
    if target_space is None:
        new_final = None if space.final is None else (space.final + shift) % n
        target_space = enumerate_histories(space.spec, space.state, new_final)
    rotated = [rotate_sites(h, n, shift) for h in phi.trajectories()]
    return MultiplicativeCoevent(
        Event.from_indices(target_space, (target_space.index_of(h) for h in rotated))
    )


@dataclass(frozen=True)
class ShiftSymmetry:
    individual_invariant: int
    ensemble_invariant: bool


@dataclass(frozen=True)
class SymmetryReport:
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

    Individual coevents are compared to their own rotations; the full
    ensemble (union over final sites) is compared to its rotated image
    as a set of trajectory sets.
    """
    n = spec.n
    ensembles = [named_ensemble(spec, state_label, f, max_histories)[1] for f in range(n)]
    supports = [
        frozenset(phi.trajectories()) for ens in ensembles for phi in ens
    ]
    pool = set(supports)
    shifts: dict[int, ShiftSymmetry] = {0: ShiftSymmetry(len(supports), True)}
    for shift in range(1, n):
        rotated = [
            frozenset(rotate_sites(h, n, shift) for h in sup) for sup in supports
        ]
        fixed = sum(1 for before, after in zip(supports, rotated) if before == after)
        shifts[shift] = ShiftSymmetry(fixed, set(rotated) == pool)
    return SymmetryReport(
        state_label,
        n,
        spec.steps,
        {f: len(ens) for f, ens in enumerate(ensembles)},
        len(supports),
        shifts,
    )


# -- state discrimination ---------------------------------------------------------


WITNESS_EVENTS = (
    "never_rests",
    "rests_exactly_once",
    "circulates_positive_only",
    "never_moves",
)


@dataclass(frozen=True)
class DiscriminationReport:
    """Pairwise primitive-coevent overlaps between initial states, with witnesses."""

    n: int
    steps: int
    final: int
    states: tuple[str, ...]
    counts: dict[str, int]
    overlaps: dict[tuple[str, str], int]
    common: dict[tuple[str, str], list[tuple[int, ...]]]
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
    """
    spaces, ensembles = {}, {}
    for label in state_labels:
        spaces[label], ensembles[label] = named_ensemble(spec, label, final, max_histories)
    support_sets = {
        label: {phi.indices() for phi in ens} for label, ens in ensembles.items()
    }
    overlaps: dict[tuple[str, str], int] = {}
    common: dict[tuple[str, str], list[tuple[int, ...]]] = {}
    for i, a in enumerate(state_labels):
        for b in state_labels[i + 1 :]:
            shared = sorted(support_sets[a] & support_sets[b])
            overlaps[(a, b)] = len(shared)
            common[(a, b)] = shared
    witness_counts: dict[str, dict[str, int]] = {}
    separators: dict[str, str | None] = {}
    for name in WITNESS_EVENTS:
        per_state = {
            label: event_verdicts(
                ensembles[label], event_by_name(spaces[label], name)
            ).affirmed
            for label in state_labels
        }
        witness_counts[name] = per_state
        affirmers = [label for label, k in per_state.items() if k > 0]
        separators[name] = affirmers[0] if len(affirmers) == 1 else None
    return DiscriminationReport(
        spec.n,
        spec.steps,
        final,
        tuple(state_labels),
        {label: len(ens) for label, ens in ensembles.items()},
        overlaps,
        common,
        witness_counts,
        separators,
    )


def coevent_records(
    coevents: Sequence[MultiplicativeCoevent],
    events: dict[str, Event],
) -> list[dict]:
    """Flat per-coevent records for tabular output."""
    records = []
    for cid, phi in enumerate(coevents):
        rec = {
            "coevent_id": cid,
            "support": list(phi.indices()),
            "circulation": net_circulation(phi),
            "rest_profile": list(rest_profile(phi)),
        }
        for name, ev in events.items():
            rec[name] = int(phi.evaluate(ev))
        records.append(rec)
    return records
