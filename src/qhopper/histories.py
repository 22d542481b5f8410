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
import itertools
import math
import operator
import re
from typing import Iterator

from .cyclotomic import CycInt
from .errors import LIMITS, SpaceMismatchError, check_size
from .model import Frozen, FrozenValue, InitialState, LatticeSpec, hop_amplitude

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


class HistorySpace(Frozen):
    """An ordered space of histories with their exact amplitudes.

    `final` is None for the unrestricted space, otherwise the shared
    final site.  `order` is the common cyclotomic order every amplitude
    is expressed in.  Instances compare by identity; events and
    coevents reference the space object they were built over.
    """

    _fields = ("spec", "state", "final", "histories", "amps", "order")
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

    def check_bitset(self, members: int) -> None:
        """Refuse an event bitset outside 0..universe_mask with ValueError."""
        if not 0 <= members <= self.universe_mask:
            raise ValueError("bitset wider than the history space")

    @functools.cached_property
    def _classes(self) -> AmplitudeClasses:
        # an instance attribute, so the classes live exactly as long as the space
        return _group_by_amplitude(self)

    @functools.cached_property
    def circulations(self) -> tuple[int, ...]:
        """Each history's `circulation`, by index; built on first use, kept on the space."""
        n = self.spec.n
        return tuple(circulation(h, n) for h in self.histories)

    @functools.cached_property
    def rest_counts(self) -> tuple[int, ...]:
        """Each history's `rest_count`, by index; built on first use, kept on the space."""
        return tuple(rest_count(h) for h in self.histories)

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

    Refuses a size over `max_histories`, before anything is built.  The size
    n^F has more than F * (bit_length(n) - 1) bits: past 2^20 of them and
    the limit's bit length it is refused as the power, never computed.
    """
    n, free = spec.n, spec.steps if final is not None else spec.steps + 1
    if free * (n.bit_length() - 1) > max(1 << 20, max_histories.bit_length()):
        check_size(f"space of {n}^{free} histories", max_histories + 1, max_histories,
                   LIMITS.max_histories)
    size = n**free
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

    Every hop carries a pure root z^(d^2 mod phase_order)
    (`LatticeSpec.hop_exponents`), so a history's amplitude is its start
    amplitude turned by one integer exponent E = sum_t (x_{t+1} - x_t)^2
    mod phase_order: with s = order / phase_order, its coefficients
    rotate by s * E.  Each start amplitude is embedded once and turned
    once per exponent its histories hold, and those histories share that
    one value; `history_amplitude` forms the same values as CycInt products.

    Refuses spaces larger than `max_histories` rather than thrash.
    """
    n, p = spec.n, spec.phase_order
    if final is not None:
        spec.check_site(final)
    check_history_guard(spec, final, max_histories)
    order = math.lcm(p, *(a.order for a in state.amps))
    # a negative displacement indexes the exponents from their end, which is mod n
    square = spec.hop_exponents

    # site 0 is the least significant digit of the index, the last digit
    # of each product tuple
    free = spec.steps if final is not None else spec.steps + 1
    tail = () if final is None else (final,)
    histories = [digits[::-1] + tail for digits in itertools.product(range(n), repeat=free)]
    # exponents of the histories' first t + 1 sites, in index order, and
    # their site t; one more site repeats the list once per value of it
    exps, last = [0] * n, list(range(n))
    for _ in range(1, free):
        exps = [e + square[x - y] for x in range(n) for e, y in zip(exps, last)]
        last = [x for x in range(n) for _ in last]
    if final is not None:
        exps = [e + square[final - y] for e, y in zip(exps, last)]
    # a start site is the lowest index digit, so site x starts histories x::n
    amps = [None] * len(exps)
    for x, a in enumerate(state.amps):
        raw, a = set(exps[x::n]), a.embed(order)  # exponents not yet reduced mod p
        turned = {e: _turn(a, order // p * e) for e in {e % p for e in raw}}
        amps[x::n] = map({e: turned[e % p] for e in raw}.__getitem__, exps[x::n])
    return HistorySpace(spec, state, final, tuple(histories), tuple(amps), order)


def _turn(a: CycInt, k: int) -> CycInt:
    """a * z^k for 0 <= k < a.order: every coefficient moves up k places."""
    c = a.coeffs
    return CycInt(a.order, c[-k:] + c[:-k]) if k else a


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


# one regex match per run of nonzero bytes; the set bits of each byte value
_NONZERO_RUN = re.compile(rb"[^\x00]+")
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_SCAN_BYTES = 256  # all-zero stretches are skipped this many bytes at a time
_LOOP_LIMIT = 1 << 64  # masks below this are read bit by bit


def bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first.

    A mask below 2^64 clears its lowest set bit per position, which is
    cheapest at that size.  A longer one has its bytes read once, so the
    time is linear in its length; clearing the lowest bit of a long int
    copies the int per bit.
    """
    if 0 <= mask < _LOOP_LIMIT:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for start in range(0, len(data), _SCAN_BYTES):
        block = data[start : start + _SCAN_BYTES]
        if block.count(0) == len(block):
            continue
        for run in _NONZERO_RUN.finditer(block):
            base = 8 * (start + run.start())
            for byte in run.group():
                for b in _BYTE_BITS[byte]:
                    yield base + b
                base += 8


def mask_of(indices) -> int:
    """The bitset with exactly the given nonnegative positions set.

    Writes one binary digit per position and parses them once, so the
    time is linear; `mask |= 1 << i` instead copies the growing int per
    index.
    """
    indices = list(indices)
    if not indices:
        return 0
    low, high = min(indices), max(indices)
    digits = bytearray(b"0") * (high - low + 1)  # the most significant first
    for i in indices:
        digits[high - i] = 49  # ord("1")
    return int(digits, 2) << low


class Event(FrozenValue):
    """A set of histories, stored as a bitset over the space's canonical indices.

    Compares by value: the same space object and the same members.
    """

    __slots__ = _fields = ("space", "members")
    space: HistorySpace
    members: int

    def __init__(self, space, members):
        space.check_bitset(members)
        super().__init__(space, members)

    @classmethod
    def from_indices(cls, space: HistorySpace, indices) -> Event:
        indices = list(indices)
        for i in indices:
            if not 0 <= i < space.size:
                raise ValueError(f"history index {i} outside 0..{space.size - 1}")
        return cls(space, mask_of(indices))

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
        return bit_indices(self.members)

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


class AmplitudeClass(Frozen):
    """All histories of one final site sharing one exact amplitude value.

    Compares by identity.
    """

    _fields = ("value", "members", "count", "final")
    value: CycInt
    members: int  # bitset over the space
    count: int
    final: int


class AmplitudeClasses(Frozen):
    """Partition of a space by (final site, exact amplitude).

    This is the engine's main acceleration structure: preclusion of an
    event depends only on how many members it takes from each class.
    Classes are ordered by their smallest member index, which makes
    every downstream report deterministic.  The class bitsets are the
    one record of membership: a sector is the classes of one final site,
    and a history's class is the class whose bitset holds it.  Compares
    by identity.  `measure.sector_tables` keeps one `SectorTable` per
    final sector here, the space's only record of its sectors, built on
    first use.
    """

    _fields = ("space", "classes")
    space: HistorySpace
    classes: tuple[AmplitudeClass, ...]

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
    # enumerated histories share a few amplitude objects, so key them by
    # object (and final site, on an unrestricted space) and take each
    # object's canonical value once, not per history.  The walk is in index
    # order, so a class is numbered at its smallest member and lists its
    # members in increasing order.
    amps, histories = space.amps, space.histories
    keys = map(id, amps)
    if space.final is None:
        keys = zip(map(operator.itemgetter(-1), histories), keys)
    by_key, by_value = {}, {}
    for i, key in enumerate(keys):
        ids = by_key.get(key)
        if ids is None:
            value = histories[i][-1], amps[i].canonical()
            ids = by_key[key] = by_value.setdefault(value, [])
        ids.append(i)
    classes = tuple(
        AmplitudeClass(amps[ids[0]], mask_of(ids), len(ids), final)
        for (final, _), ids in by_value.items()
    )
    return AmplitudeClasses(space, classes)
