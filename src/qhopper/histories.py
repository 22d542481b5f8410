"""Canonical trajectory enumeration, exact amplitudes, and per-history observables.

A history is the start site followed by the site after each step, as a
plain tuple of ints.  The canonical index of a history is the base-n
number sum(sites[t] * n^t) (little-endian over time).  A space
restricted to one final site inherits the relative order, which makes
its own index simply the base-n number over the first T sites.  That
ordering is what event bitsets, serialized supports, and golden outputs
refer to.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .cyclotomic import CycInt
from .errors import LIMITS, SpaceMismatchError, check_size
from .model import InitialState, LatticeSpec, hop_amplitude

__all__ = [
    "Sites",
    "HistorySpace",
    "Event",
    "AmplitudeClass",
    "AmplitudeClasses",
    "check_history_guard",
    "enumerate_histories",
    "history_amplitude",
    "amplitude_classes",
    "history_index",
    "circulation",
    "rest_count",
    "visited",
    "half_hop_count",
]

Sites = tuple[int, ...]


def history_index(sites: Sites, n: int) -> int:
    """Canonical index of a history in the unrestricted space."""
    return sum(s * n**t for t, s in enumerate(sites))


@dataclass(frozen=True, eq=False)
class HistorySpace:
    """An ordered space of histories with their exact amplitudes.

    `final` is None for the unrestricted space, otherwise the shared
    final site.  `order` is the common cyclotomic order every amplitude
    is expressed in.  Instances compare by identity; events and
    coevents reference the space object they were built over.
    """

    spec: LatticeSpec
    state: InitialState
    final: int | None
    histories: tuple[Sites, ...]
    amps: tuple[CycInt, ...]
    order: int

    @property
    def size(self) -> int:
        return len(self.histories)

    @property
    def universe_mask(self) -> int:
        return (1 << self.size) - 1

    @functools.cached_property
    def _classes(self) -> AmplitudeClasses:
        # an instance attribute, so the classes live exactly as long as the space
        return _group_by_amplitude(self)

    def index_of(self, sites: Sites) -> int:
        n = self.spec.n
        if self.final is None:
            return history_index(sites, n)
        if sites[-1] != self.final:
            raise ValueError(f"history {sites} does not end at site {self.final}")
        return history_index(sites[:-1], n)

    def __repr__(self) -> str:
        where = "all" if self.final is None else self.final
        return (
            f"HistorySpace(n={self.spec.n}, steps={self.spec.steps}, "
            f"state={self.state.label!r}, final={where}, size={self.size})"
        )


def check_history_guard(
    spec: LatticeSpec, final: int | None, max_histories: int = LIMITS.max_histories.default
) -> int:
    """Size of the space with this final site (None: every final site).

    Refuses a size over `max_histories`, before anything is built.
    """
    size = spec.n**spec.steps if final is not None else spec.n ** (spec.steps + 1)
    check_size("space of {} histories", size, max_histories, LIMITS.max_histories)
    return size


def enumerate_histories(
    spec: LatticeSpec,
    state: InitialState,
    final: int | None = None,
    *,
    max_histories: int = LIMITS.max_histories.default,
) -> HistorySpace:
    """Enumerate the canonical space, filling in all amplitudes.

    Refuses spaces larger than `max_histories` rather than thrash.
    """
    n, steps = spec.n, spec.steps
    if final is not None:
        spec.check_site(final)
    size = check_history_guard(spec, final, max_histories)
    order = math.lcm(spec.phase_order, *(a.order for a in state.amps))
    start_amps = tuple(a.embed(order) for a in state.amps)
    # the phase of a hop depends only on its displacement mod n, for either
    # phase order: (d + k n)^2 = d^2 mod n, and mod 2n when n is even
    hop = [hop_amplitude(spec, 0, d).embed(order) for d in range(n)]

    free = steps if final is not None else steps + 1
    histories: list[Sites] = []
    amps: list[CycInt] = []
    for idx in range(size):
        digits = []
        rem = idx
        for _ in range(free):
            digits.append(rem % n)
            rem //= n
        sites = tuple(digits) if final is None else tuple(digits) + (final,)
        a = start_amps[sites[0]]
        for t in range(steps):
            a = a * hop[(sites[t + 1] - sites[t]) % n]
        histories.append(sites)
        amps.append(a)
    return HistorySpace(spec, state, final, tuple(histories), tuple(amps), order)


def history_amplitude(space: HistorySpace, sites: Sites) -> CycInt:
    """Exact amplitude of one history: initial amplitude times the hop phases."""
    spec = space.spec
    if len(sites) != spec.steps + 1:
        raise ValueError(f"expected {spec.steps + 1} sites, got {len(sites)}")
    for s in sites:
        spec.check_site(s)
    a = space.state.amps[sites[0]].embed(space.order)
    for t in range(spec.steps):
        a = a * hop_amplitude(spec, sites[t], sites[t + 1]).embed(space.order)
    return a


# -- per-history observables --------------------------------------------------


def _hop_sign(d: int, n: int) -> int:
    """+1 forward, -1 backward, 0 for a rest or an exact half-lattice hop."""
    if d == 0 or 2 * d == n:
        return 0
    return 1 if 2 * d < n else -1


def circulation(sites: Sites, n: int) -> int:
    """Forward hops minus backward hops along one history."""
    return sum(_hop_sign((sites[t + 1] - sites[t]) % n, n) for t in range(len(sites) - 1))


def rest_count(sites: Sites) -> int:
    return sum(1 for t in range(len(sites) - 1) if sites[t] == sites[t + 1])


def visited(sites: Sites) -> frozenset[int]:
    return frozenset(sites)


def half_hop_count(sites: Sites, n: int) -> int:
    """Number of hops by exactly n/2 sites (even n only); they carry sign 0."""
    if n % 2:
        return 0
    return sum(1 for t in range(len(sites) - 1) if (sites[t + 1] - sites[t]) % n == n // 2)


# -- events -------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """A set of histories, stored as a bitset over the space's canonical indices."""

    space: HistorySpace
    members: int

    def __post_init__(self):
        if not 0 <= self.members <= self.space.universe_mask:
            raise ValueError("bitset wider than the history space")

    @classmethod
    def from_indices(cls, space: HistorySpace, indices) -> Event:
        mask = 0
        for i in indices:
            if not 0 <= i < space.size:
                raise ValueError(f"history index {i} outside 0..{space.size - 1}")
            mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def empty(cls, space: HistorySpace) -> Event:
        return cls(space, 0)

    @classmethod
    def full(cls, space: HistorySpace) -> Event:
        return cls(space, space.universe_mask)

    @property
    def count(self) -> int:
        return self.members.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(self.iter_indices())

    def iter_indices(self) -> Iterator[int]:
        mask = self.members
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _check(self, other: Event) -> None:
        if other.space is not self.space:
            raise SpaceMismatchError("events live over different history spaces")

    def issubset(self, other: Event) -> bool:
        self._check(other)
        return self.members & ~other.members == 0

    def __or__(self, other: Event) -> Event:
        self._check(other)
        return Event(self.space, self.members | other.members)

    def __and__(self, other: Event) -> Event:
        self._check(other)
        return Event(self.space, self.members & other.members)

    def __sub__(self, other: Event) -> Event:
        self._check(other)
        return Event(self.space, self.members & ~other.members)

    def complement(self) -> Event:
        return Event(self.space, self.space.universe_mask ^ self.members)


# -- amplitude classes ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AmplitudeClass:
    """All histories of one final site sharing one exact amplitude value."""

    value: CycInt
    members: int  # bitset over the space
    count: int
    final: int


@dataclass(frozen=True, eq=False)
class AmplitudeClasses:
    """Partition of a space by (final site, exact amplitude).

    This is the engine's main acceleration structure: preclusion of an
    event depends only on how many members it takes from each class.
    Classes are ordered by their smallest member index, which makes
    every downstream report deterministic.
    """

    space: HistorySpace
    classes: tuple[AmplitudeClass, ...]
    sectors: dict[int, tuple[int, ...]] = field(repr=False)
    class_of: tuple[int, ...] = field(repr=False)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c.count for c in self.classes)

    def event_counts(self, members: int) -> tuple[int, ...]:
        """Per-class member counts of an event bitset."""
        return tuple((members & c.members).bit_count() for c in self.classes)


def amplitude_classes(space: HistorySpace) -> AmplitudeClasses:
    """Group the space's histories by exact amplitude within each final sector.

    Computed once per space and kept on it.
    """
    return space._classes


def _group_by_amplitude(space: HistorySpace) -> AmplitudeClasses:
    buckets: dict[tuple, list[int]] = {}
    for i, (sites, amp) in enumerate(zip(space.histories, space.amps)):
        key = (sites[-1], amp.canonical())
        buckets.setdefault(key, []).append(i)
    ordered = sorted(buckets.values(), key=lambda ids: ids[0])
    classes = []
    class_of = [0] * space.size
    sectors: dict[int, list[int]] = {}
    for cid, ids in enumerate(ordered):
        mask = 0
        for i in ids:
            mask |= 1 << i
            class_of[i] = cid
        final = space.histories[ids[0]][-1]
        classes.append(AmplitudeClass(space.amps[ids[0]], mask, len(ids), final))
        sectors.setdefault(final, []).append(cid)
    return AmplitudeClasses(
        space,
        tuple(classes),
        {f: tuple(cids) for f, cids in sorted(sectors.items())},
        tuple(class_of),
    )
