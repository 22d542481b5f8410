"""The multiplicative scheme: coevents, preclusivity, primitivity, enumeration.

A multiplicative coevent F* affirms exactly the supersets of its
support F.  It is preclusive when F is contained in no precluded event,
and primitive when moreover no proper subset of F is still preclusive.
Preclusivity is upward closed, so primitivity only needs single-history
deletions, and it depends only on how many histories the support takes
from each amplitude class.  The fast enumerator therefore finds the
inclusion-minimal preclusive count vectors and expands them into
explicit supports.  The brute-force enumerator instead judges every
subset of the space from exact amplitude sums: a table of each sector's
zero-sum subsets, closed downward, gives the subsets contained in a
precluded event, and the primitive supports are the minimal subsets
outside it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LIMITS, SpaceMismatchError, WrongSpaceError, check_size
from .histories import AmplitudeClasses, Event, HistorySpace, amplitude_classes
from .measure import sector_tables
from .subsetwalk import close_downward, minimal_uncovered, zero_sum_subsets

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
    per class.  A support is the sum of one combination mask per class.
    """
    classes = amplitude_classes(space)
    minimal = minimal_preclusive_vectors(classes, max_vectors=max_vectors)
    total = _support_count(classes.counts, minimal)
    check_size("expansion of {} primitive supports", total, max_supports,
               LIMITS.max_supports)
    # A combination is coded as rev << N | mask, where rev holds history i at
    # bit N-1-i; codes of disjoint sets add without carries.  Primitive
    # supports form an antichain, so no support's index tuple is a prefix of
    # another's: the lowest history where two supports differ decides their
    # canonical order, and the one holding it, whose rev is larger, comes
    # first.  Descending codes are therefore in canonical order.
    size = space.size
    member_lists = [Event(space, c.members).indices() for c in classes.classes]

    @functools.cache
    def codes(cid: int, k: int) -> list[int]:
        return [
            sum(1 << (2 * size - 1 - i) | 1 << i for i in combo)
            for combo in itertools.combinations(member_lists[cid], k)
        ]

    supports: list[int] = []
    for vec in minimal:
        per_class = [codes(cid, k) for cid, k in enumerate(vec) if k]
        supports.extend(map(sum, itertools.product(*per_class)))
    supports.sort(reverse=True)
    low = space.universe_mask
    return [MultiplicativeCoevent(Event(space, code & low)) for code in supports]


def enumerate_primitive_bruteforce(
    space: HistorySpace, *, max_subsets: int | None = None
) -> list[MultiplicativeCoevent]:
    """Primitive coevents by testing every subset of the space.

    A subset is contained in a precluded event iff each final sector's
    part is contained in a zero-sum subset of that sector, found from
    the histories' exact amplitude sums (no class shortcut).  Each
    sector's zero-sum table, closed downward, says which parts are; the
    final site is the most significant digit of the canonical index, so
    each sector is one contiguous run of histories and the space's table
    is the outer AND of the sectors' tables.  The primitive supports are
    its minimal unmarked subsets.  Results come out in size-then-index
    order.
    """
    check_size("brute force over {} subsets", 1 << space.size, max_subsets,
               LIMITS.max_subsets)
    run = space.size if space.final is not None else space.size // space.spec.n
    covered = None
    for lo in range(0, space.size, run):
        rows = [a.canonical() for a in space.amps[lo : lo + run]]
        part = close_downward(zero_sum_subsets(rows), run)
        covered = part if covered is None else np.logical_and.outer(part, covered).ravel()
    masks = [int(m) for m in np.flatnonzero(minimal_uncovered(covered, space.size))]
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
