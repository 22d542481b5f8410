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

from .errors import InfeasibleSizeError, SpaceMismatchError, WrongSpaceError
from .histories import AmplitudeClasses, Event, HistorySpace, amplitude_classes
from .measure import (
    DEFAULT_MAX_VECTORS,
    resolve_subset_cap,
    sector_tables,
)
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

DEFAULT_MAX_SUPPORTS = 1 << 20
DEFAULT_BRUTEFORCE_SUBSETS = 1 << 20
DEFAULT_WORK_BOUND = 1 << 24
MAX_EXPLICIT_ZERO_EVENTS = 1 << 14  # per sector; containment checks are quadratic


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


def _sector_count_vectors(
    classes: AmplitudeClasses, members: int
) -> dict[int, tuple[int, ...]]:
    counts = classes.event_counts(members)
    tables = sector_tables(classes)
    return {
        final: tuple(counts[c] for c in table.class_ids)
        for final, table in tables.items()
    }


def is_preclusive(support: Event) -> bool:
    """True iff the support is contained in no precluded event.

    Containment in a precluded event requires every final sector's part
    to extend to a zero-sum set within its own sector (empty parts
    extend trivially), so the support is preclusive exactly when some
    sector part exceeds every zero-sum count vector of its sector.
    """
    classes = amplitude_classes(support.space)
    tables = sector_tables(classes)
    for final, vec in _sector_count_vectors(classes, support.members).items():
        if not tables[final].extendable(vec):
            return True
    return False


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
        if len(minimal) > max_vectors:
            raise InfeasibleSizeError(
                f"antichain of {len(minimal)} minimal preclusive vectors exceeds "
                f"the max_vectors guard of {max_vectors}"
            )
    return sorted(minimal, key=lambda v: (sum(v), v))


def minimal_preclusive_vectors(
    classes: AmplitudeClasses, *, max_vectors: int = DEFAULT_MAX_VECTORS
) -> list[tuple[int, ...]]:
    """Inclusion-minimal preclusive count vectors of a fixed-final space.

    A count vector is preclusive iff no zero-sum vector dominates it,
    that is iff it escapes every maximal zero-sum vector M (v_i > M_i for
    some class i); the minimal such vectors come from dualising the
    maxima.  Sorted by total, then lexicographically.
    """
    if classes.space.final is None:
        raise WrongSpaceError("minimal preclusive vectors need a fixed-final space")
    (table,) = sector_tables(classes, max_vectors=max_vectors).values()
    return _dualise_maxima(table.maximal_zero, table.counts, max_vectors)


def count_primitive(
    space: HistorySpace, *, max_vectors: int = DEFAULT_MAX_VECTORS
) -> int:
    """Number of primitive coevents, without expanding supports."""
    classes = amplitude_classes(space)
    table = sector_tables(classes, max_vectors=max_vectors)[space.final]
    total = 0
    for vec in minimal_preclusive_vectors(classes, max_vectors=max_vectors):
        total += math.prod(math.comb(c, k) for c, k in zip(table.counts, vec))
    return total


def enumerate_primitive(
    space: HistorySpace,
    *,
    max_supports: int = DEFAULT_MAX_SUPPORTS,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> list[MultiplicativeCoevent]:
    """All primitive coevents of a fixed-final space, in canonical index order.

    Same-class histories are interchangeable, so each minimal preclusive
    count vector expands into every way of choosing that many members
    per class.
    """
    if space.final is None:
        raise WrongSpaceError(
            "enumerate_primitive needs a fixed-final space; "
            "use enumerate_primitive_bruteforce for unrestricted spaces"
        )
    total = count_primitive(space, max_vectors=max_vectors)
    if total > max_supports:
        raise InfeasibleSizeError(
            f"{total} primitive supports exceed the expansion guard of {max_supports}"
        )
    classes = amplitude_classes(space)
    table = sector_tables(classes, max_vectors=max_vectors)[space.final]
    member_lists = [
        Event(space, classes.classes[c].members).indices() for c in table.class_ids
    ]
    supports: list[tuple[int, ...]] = []
    for vec in minimal_preclusive_vectors(classes, max_vectors=max_vectors):
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
    work_bound: int = DEFAULT_WORK_BOUND,
    threads: int = 1,
) -> list[MultiplicativeCoevent]:
    """Primitive coevents by testing every subset of the space.

    Precluded events are enumerated explicitly per sector (exact
    amplitude sums, no class shortcut); a subset is preclusive iff it is
    contained in no maximal precluded event, and primitive iff it is
    moreover minimal with that property.  Results come out in
    size-then-index order.
    """
    cap = resolve_subset_cap(max_subsets, DEFAULT_BRUTEFORCE_SUBSETS)
    if (1 << space.size) > cap:
        raise InfeasibleSizeError(
            f"brute force over 2^{space.size} subsets exceeds the cap of {cap}"
        )
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
        if len(local_zero) > MAX_EXPLICIT_ZERO_EVENTS:
            raise InfeasibleSizeError(
                f"sector at final {table.final} has {len(local_zero)} zero-sum "
                f"events; explicit containment is capped at {MAX_EXPLICIT_ZERO_EVENTS}"
            )
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
    work = sum(1 << m.bit_count() for m in maxima)
    if work > work_bound:
        raise InfeasibleSizeError(
            f"covering {len(maxima)} maximal precluded events needs {work} marks, "
            f"over the bound of {work_bound}"
        )

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
