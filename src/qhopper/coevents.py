"""The multiplicative scheme: coevents, preclusivity, primitivity, enumeration.

A multiplicative coevent F* affirms exactly the supersets of its
support F.  It is preclusive when F is contained in no precluded event,
and primitive when moreover no proper subset of F is still preclusive.
Preclusivity is upward closed, so primitivity only needs single-history
deletions, and it depends only on how many histories the support takes
from each amplitude class.  The fast enumerator therefore finds the
inclusion-minimal preclusive count vectors and expands them into
explicit supports; the brute-force enumerator instead tests every
subset of the space against explicitly enumerated precluded events.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LIMITS, SpaceMismatchError, WrongSpaceError, check_size
from .histories import AmplitudeClasses, Event, HistorySpace, amplitude_classes
from .measure import sector_tables
from .subsetwalk import antichain_maxima, minimal_uncovered, submasks, zero_sum_subsets

__all__ = [
    "MultiplicativeCoevent",
    "is_preclusive",
    "is_primitive",
    "minimal_preclusive_vectors",
    "enumerate_primitive",
    "count_primitive",
    "enumerate_primitive_bruteforce",
    "overlap",
    "common_supports",
]


@dataclass(frozen=True)
class MultiplicativeCoevent:
    """The coevent F* determined by its support F."""

    support: Event

    @property
    def space(self) -> HistorySpace:
        return self.support.space

    @property
    def size(self) -> int:
        return self.support.count

    def indices(self) -> tuple[int, ...]:
        return self.support.indices()

    def trajectories(self) -> tuple[tuple[int, ...], ...]:
        """The support's histories as site tuples (state-independent identity)."""
        hs = self.space.histories
        return tuple(hs[i] for i in self.support.iter_indices())

    def evaluate(self, event: Event) -> bool:
        """1 ('happens') iff the event contains the whole support."""
        if event.space is not self.space:
            raise SpaceMismatchError("coevent and event live over different spaces")
        return self.support.members & ~event.members == 0


def is_preclusive(support: Event) -> bool:
    """True iff the support is contained in no precluded event.

    Containment in a precluded event requires every final sector's part
    to extend to a zero-sum set within its own sector (empty parts
    extend trivially), so the support is preclusive exactly when some
    sector part exceeds every zero-sum count vector of its sector.
    """
    classes = amplitude_classes(support.space)
    counts = classes.event_counts(support.members)
    return any(
        not table.extendable(tuple(counts[c] for c in table.class_ids))
        for table in sector_tables(classes).values()
    )


def is_primitive(support: Event) -> bool:
    """Preclusive, and no single-history deletion stays preclusive.

    Single deletions suffice because preclusivity is upward closed: a
    preclusive proper subset would leave some one-element deletion
    preclusive as well.
    """
    if not is_preclusive(support):
        return False
    for i in support.iter_indices():
        if is_preclusive(Event(support.space, support.members ^ (1 << i))):
            return False
    return True


def _dualise_maxima(
    maxima: tuple[tuple[int, ...], ...], counts: tuple[int, ...], max_vectors: int
) -> list[tuple[int, ...]]:
    """Minimal vectors of the box 0 <= v <= counts lying below none of `maxima`.

    Berge-style dualisation: the minimal vectors escaping every maximum
    seen so far either escape the next one M already (some v_i > M_i),
    or are raised to M_i + 1 on one class i.  After each M the raised
    vectors are pruned back to the minimal ones; the escaping vectors
    stay minimal, as the previous antichain already was.
    """
    minimal = [(0,) * len(counts)]
    for mx in maxima:
        kept: list[tuple[int, ...]] = []
        raised: set[tuple[int, ...]] = set()
        for v in minimal:
            if any(k > m for k, m in zip(v, mx)):
                kept.append(v)
                continue
            for i, (m, c) in enumerate(zip(mx, counts)):
                if m < c:
                    raised.add(v[:i] + (m + 1,) + v[i + 1 :])
        minimal = kept
        # a vector dominating another has the larger sum, so it comes later
        for w in sorted(raised, key=sum):
            if not any(all(a <= b for a, b in zip(u, w)) for u in minimal):
                minimal.append(w)
        check_size("antichain of {} minimal preclusive vectors", len(minimal),
                   max_vectors, LIMITS.max_vectors)
    return sorted(minimal, key=lambda v: (sum(v), v))


def minimal_preclusive_vectors(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> list[tuple[int, ...]]:
    """Inclusion-minimal preclusive count vectors of a fixed-final space.

    A count vector is preclusive iff no zero-sum vector dominates it,
    that is iff it escapes every maximal zero-sum vector M (v_i > M_i for
    some class i); the minimal such vectors come from dualising the
    maxima.  Sorted by total, then lexicographically.
    """
    if classes.space.final is None:
        raise WrongSpaceError(
            "primitive coevents need a fixed-final space; "
            "use enumerate_primitive_bruteforce for unrestricted spaces"
        )
    (table,) = sector_tables(classes, max_vectors=max_vectors).values()
    return _dualise_maxima(table.maximal_zero, table.counts, max_vectors)


def _support_count(counts: tuple[int, ...], minimal: list[tuple[int, ...]]) -> int:
    return sum(math.prod(map(math.comb, counts, vec)) for vec in minimal)


def count_primitive(
    space: HistorySpace, *, max_vectors: int = LIMITS.max_vectors.default
) -> int:
    """Number of primitive coevents, without expanding supports."""
    classes = amplitude_classes(space)
    minimal = minimal_preclusive_vectors(classes, max_vectors=max_vectors)
    return _support_count(classes.counts, minimal)


def enumerate_primitive(
    space: HistorySpace,
    *,
    max_supports: int = LIMITS.max_supports.default,
    max_vectors: int = LIMITS.max_vectors.default,
) -> list[MultiplicativeCoevent]:
    """All primitive coevents of a fixed-final space, in canonical index order.

    Same-class histories are interchangeable, so each minimal preclusive
    count vector expands into every way of choosing that many members
    per class.
    """
    classes = amplitude_classes(space)
    minimal = minimal_preclusive_vectors(classes, max_vectors=max_vectors)
    total = _support_count(classes.counts, minimal)
    check_size("expansion of {} primitive supports", total, max_supports,
               LIMITS.max_supports)
    member_lists = [Event(space, c.members).indices() for c in classes.classes]
    supports: list[tuple[int, ...]] = []
    for vec in minimal:
        per_class = [
            itertools.combinations(members, k)
            for members, k in zip(member_lists, vec)
        ]
        for combo in itertools.product(*per_class):
            supports.append(tuple(sorted(itertools.chain.from_iterable(combo))))
    supports.sort()
    return [MultiplicativeCoevent(Event.from_indices(space, s)) for s in supports]


def enumerate_primitive_bruteforce(
    space: HistorySpace,
    *,
    max_subsets: int | None = None,
    work_bound: int = LIMITS.work_bound.default,
    threads: int = 1,
) -> list[MultiplicativeCoevent]:
    """Primitive coevents by testing every subset of the space.

    Precluded events are enumerated explicitly per sector (exact
    amplitude sums, no class shortcut); a subset is preclusive iff it is
    contained in no maximal precluded event, and primitive iff it is
    moreover minimal with that property.  Results come out in
    size-then-index order.
    """
    check_size("brute force over {} subsets", 1 << space.size, max_subsets,
               LIMITS.max_subsets)
    classes = amplitude_classes(space)

    # explicit zero-sum (precluded) events per sector, then their maxima
    per_sector_maxima: list[list[int]] = []
    for table in sector_tables(classes).values():
        members: list[int] = []
        for cid in table.class_ids:
            members.extend(Event(space, classes.classes[cid].members).indices())
        members.sort()
        rows = [space.amps[i].canonical() for i in members]
        local_zero = zero_sum_subsets(rows, threads=threads)
        check_size(f"sector at final {table.final} with {{}} zero-sum events",
                   len(local_zero), None, LIMITS.zero_events)
        global_zero = []
        for lm in local_zero:
            gm = 0
            while lm:
                low = lm & -lm
                gm |= 1 << members[low.bit_length() - 1]
                lm ^= low
            global_zero.append(gm)
        per_sector_maxima.append(antichain_maxima(global_zero))

    # sectors partition the space, so unions of one maximal zero-sum event
    # per sector are exactly the maximal precluded events
    maxima: list[int] = []
    for combo in itertools.product(*per_sector_maxima):
        m = 0
        for part in combo:
            m |= part
        maxima.append(m)
    check_size(f"covering {len(maxima)} maximal precluded events with {{}} marks",
               sum(1 << m.bit_count() for m in maxima), work_bound, LIMITS.work_bound)

    covered = bytearray(1 << space.size)
    for m in maxima:
        for s in submasks(m):
            covered[s] = 1
    covered_arr = np.frombuffer(covered, dtype=np.uint8).view(np.bool_)
    ok = minimal_uncovered(covered_arr, space.size)
    masks = [int(m) for m in np.nonzero(ok)[0]]
    masks.sort(key=lambda m: (m.bit_count(), Event(space, m).indices()))
    return [MultiplicativeCoevent(Event(space, m)) for m in masks]


def overlap(a_space: HistorySpace, b_space: HistorySpace) -> int:
    """Number of supports primitive for both spaces (as history-index sets)."""
    return len(common_supports(a_space, b_space))


def common_supports(
    a_space: HistorySpace, b_space: HistorySpace
) -> list[tuple[int, ...]]:
    """Supports shared by the two spaces' primitive coevents, sorted."""
    if a_space.spec != b_space.spec or a_space.final != b_space.final:
        raise SpaceMismatchError(
            "overlap compares spaces sharing lattice, steps, and final site"
        )
    a = {phi.indices() for phi in enumerate_primitive(a_space)}
    b = {phi.indices() for phi in enumerate_primitive(b_space)}
    return sorted(a & b)
