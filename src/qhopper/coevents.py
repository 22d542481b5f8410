"""The multiplicative scheme: coevents, preclusivity, primitivity, enumeration.

A multiplicative coevent F* affirms exactly the supersets of its
support F.  It is preclusive when F is contained in no precluded event,
and primitive when moreover no proper subset of F is still preclusive.
Preclusivity is upward closed, so primitivity only needs single-history
deletions, and it depends only on how many histories the support takes
from each amplitude class.  A `PrimitiveProfile` therefore holds the
inclusion-minimal preclusive count vectors: whole-ensemble figures are
binomial sums over them, and the fast enumerator expands them into
explicit supports only where supports are listed: each support is a
sorted tuple of history indices, the combinations of w_c members of
each class c merged, and one sort puts them in canonical index order.
The brute-force
enumerator instead judges every subset of the space from exact
amplitude sums: a table of each sector's zero-sum subsets, closed
downward, gives the subsets contained in a precluded event, and the
primitive supports are the minimal subsets outside it.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import LIMITS, SpaceMismatchError, WrongSpaceError, check_size
from .histories import (
    AmplitudeClasses,
    Event,
    HistorySpace,
    amplitude_classes,
    bit_indices,
    mask_of,
)
from .measure import _Antichain, _bruteforce_sectors, sector_tables
from .model import Frozen, FrozenValue
from .subsetwalk import close_downward, minimal_uncovered, outer_and, zero_sum_subsets

__all__ = [
    "MultiplicativeCoevent",
    "is_preclusive",
    "is_primitive",
    "minimal_preclusive_vectors",
    "PrimitiveProfile",
    "primitive_profile",
    "enumerate_primitive",
    "count_primitive",
    "enumerate_primitive_bruteforce",
    "overlap",
    "common_supports",
]


class MultiplicativeCoevent(FrozenValue):
    """The coevent F* determined by its support F.

    Compares by value: equal coevents have equal supports.
    """

    __slots__ = _fields = ("support",)
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

    Berge-style dualisation on an `_Antichain`: the minimal vectors
    escaping every maximum seen so far either escape the next one M
    already (some v_i > M_i), or lie under M and are raised to M_i + 1
    on one class i.  A raised vector joins unless a held one lies under
    it; the escaping vectors stay minimal, as they already were.
    """
    minimal = _Antichain(counts, [(0,) * len(counts)])
    # larger maxima first: fewer vectors are then left for the smaller ones to raise
    for mx in sorted(maxima, key=sum, reverse=True):
        raised: set[tuple[int, ...]] = set()
        for v in minimal.remove(minimal.at_most(mx)):
            for i, (m, c) in enumerate(zip(mx, counts)):
                if m < c:
                    raised.add(v[:i] + (m + 1,) + v[i + 1 :])
        # a vector dominating another has the larger sum, so it comes later
        for w in sorted(raised, key=sum):
            if not minimal.at_most(w):
                minimal.add(w)
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


def _support_count(
    counts: tuple[int, ...], minimal: tuple[tuple[int, ...], ...] | list[tuple[int, ...]]
) -> int:
    return sum(math.prod(map(math.comb, counts, vec)) for vec in minimal)


def _support_rows(member_lists, vectors) -> list[tuple[int, ...]]:
    """Sorted index tuples of the supports taking vec[j] members of
    member_lists[j], for every vector; in canonical index order if the
    supports form an antichain.

    Each member list is increasing, so a one-list vector's combinations
    are already sorted tuples, and a mixed vector's are merged.  In an
    antichain no support's tuple is a prefix of another's, so sorting
    the tuples orders supports by the lowest history where they differ,
    the one holding it first: canonical index order.
    """
    chain = itertools.chain.from_iterable
    rows: list[tuple[int, ...]] = []
    for vec in vectors:
        parts = [itertools.combinations(member_lists[j], k) for j, k in enumerate(vec) if k]
        if len(parts) == 1:
            rows.extend(parts[0])
        else:
            rows.extend(tuple(sorted(chain(combo))) for combo in itertools.product(*parts))
    rows.sort()
    return rows


class PrimitiveProfile(Frozen):
    """The primitive ensemble of a fixed-final space, held as its minimal class vectors.

    A support is primitive exactly when its per-class counts form a
    minimal preclusive vector w, and every choice of w_c members of each
    class c gives one.  So each whole-ensemble figure is a sum over the
    minimal vectors of products of binomials, and supports are expanded,
    as sorted index tuples, only where they are listed (`supports`,
    `shared_supports`; `expand` wraps each as a coevent).  Compares by
    identity.
    """

    _fields = ("classes", "minimal")
    classes: AmplitudeClasses
    minimal: tuple[tuple[int, ...], ...]  # sorted by total, then lexicographically

    @property
    def space(self) -> HistorySpace:
        return self.classes.space

    @functools.cached_property
    def count(self) -> int:
        """Number of primitive supports."""
        return _support_count(self.classes.counts, self.minimal)

    def size_histogram(self) -> dict[int, int]:
        """Number of supports per support size, by increasing size."""
        hist: dict[int, int] = {}
        for vec in self.minimal:
            size = sum(vec)
            hist[size] = hist.get(size, 0) + _support_count(self.classes.counts, (vec,))
        return dict(sorted(hist.items()))

    def count_within(self, members: int) -> int:
        """Supports inside the event bitset: sum over w of prod_c C(|class_c & E|, w_c)."""
        self.space.check_bitset(members)
        return _support_count(self.classes.event_counts(members), self.minimal)

    def count_one_of(self, one: int, rest: int) -> int:
        """Supports of two or more histories: one in bitset `one`, the others in `rest`.

        The bitsets must be disjoint and inside the space.  The member
        from `one` comes from some class c, which leaves w_c - 1 members
        to choose from class c's part of `rest`.
        """
        self.space.check_bitset(one)
        self.space.check_bitset(rest)
        if one & rest:
            raise ValueError("count_one_of needs disjoint bitsets")
        ones = self.classes.event_counts(one)
        rests = self.classes.event_counts(rest)
        total = 0
        for vec in self.minimal:
            if sum(vec) < 2:
                continue
            for c, k in enumerate(vec):
                if k and ones[c]:
                    others = vec[:c] + (k - 1,) + vec[c + 1 :]
                    total += ones[c] * _support_count(rests, (others,))
        return total

    def total(self, table: tuple[int, ...] | list[int]) -> int:
        """Sum of table[i] over every member i of every support.

        A member of class c lies in C(n_c - 1, w_c - 1) * prod_{j != c}
        C(n_j, w_j) supports of vector w, that is prod_j C(n_j, w_j)
        * w_c / n_c of them, so class c contributes its table total T_c
        times that many.
        """
        if len(table) != self.space.size:
            raise ValueError(f"table of {len(table)} entries for {self.space.size} histories")
        counts = self.classes.counts
        class_totals = [sum(table[i] for i in ids) for ids in self._member_lists]
        total = 0
        for vec in self.minimal:
            supports = _support_count(counts, (vec,))
            for t, k, n in zip(class_totals, vec, counts):
                if k:
                    total += t * (supports * k // n)
        return total

    @functools.cached_property
    def _member_lists(self) -> list[tuple[int, ...]]:
        return [tuple(bit_indices(c.members)) for c in self.classes.classes]

    def supports(
        self, within: int | None = None, *, max_supports: int = LIMITS.max_supports.default
    ) -> list[tuple[int, ...]]:
        """The primitive supports as sorted index tuples, in canonical index
        order; only those inside the event bitset `within` when it is given
        (checked by `count_within`, as the guard counts them first)."""
        if within is None:
            within = self.space.universe_mask
        check_size("expansion of {} primitive supports", self.count_within(within),
                   max_supports, LIMITS.max_supports)
        member_lists = [
            tuple(i for i in ids if within >> i & 1) for ids in self._member_lists
        ]
        # primitive supports form an antichain
        return _support_rows(member_lists, self.minimal)

    def expand(
        self, within: int | None = None, *, max_supports: int = LIMITS.max_supports.default
    ) -> list[MultiplicativeCoevent]:
        """The primitive coevents of `supports`, in the same order."""
        space = self.space
        return [
            MultiplicativeCoevent(Event(space, mask_of(row)))
            for row in self.supports(within, max_supports=max_supports)
        ]

    def _joint_tables(
        self, other: PrimitiveProfile, index_map: list[int] | None, max_vectors: int
    ) -> tuple[list[list[int]], list[tuple[int, ...]]]:
        """Cells of the two class partitions' meet, and their minimal joint tables.

        History i of this space falls in cell (its class here, the class
        of history index_map[i] there).  A support of this space is
        primitive in both (read through the map) exactly when its count
        table over the cells has a minimal vector of each profile as its
        two marginals.  Returns the cells' member lists and those tables.

        Without a map the two spaces must share lattice, steps and final
        site.  A map holds one index of the other space per history here,
        no two alike, or a support's image would lose members.
        """
        here, there = self.space, other.space
        if index_map is None:
            if here.spec != there.spec or here.final != there.final:
                raise SpaceMismatchError("without an index map, profiles must share "
                                         "lattice, steps and final site")
        elif not (len(index_map) == len(set(index_map)) == here.size
                  and 0 <= min(index_map) <= max(index_map) < there.size):
            raise ValueError(f"an index map holds distinct indices of 0..{there.size - 1}, "
                             f"one per history, {here.size} in all")
        theirs = [0] * there.size
        for b, ids in enumerate(other._member_lists):
            for j in ids:
                theirs[j] = b
        cells: dict[tuple[int, int], list[int]] = {}
        for a, ids in enumerate(self._member_lists):
            for i in ids:
                b = theirs[i if index_map is None else index_map[i]]
                cells.setdefault((a, b), []).append(i)
        keys = sorted(cells)
        members = [cells[key] for key in keys]
        rows: list[list[int]] = [[] for _ in self.classes.classes]
        for cell, (a, _) in enumerate(keys):
            rows[a].append(cell)
        table = [0] * len(keys)
        tables: list[tuple[int, ...]] = []
        visited = 0

        def fill(row: int, pos: int, left: int, row_sums, cols: list[int]) -> None:
            # spread what row `row` still holds over its cells from `pos` on
            nonlocal visited
            visited += 1
            check_size("joint enumeration of {} partial count tables", visited,
                       max_vectors, LIMITS.max_vectors)
            if pos == len(rows[row]):
                if left:
                    return
                if row + 1 < len(rows):
                    fill(row + 1, 0, row_sums[row + 1], row_sums, cols)
                else:  # the two marginals have equal totals, so every column is full
                    tables.append(tuple(table))
                return
            cell = rows[row][pos]
            b = keys[cell][1]
            for k in range(min(left, len(members[cell]), cols[b]) + 1):
                table[cell] = k
                cols[b] -= k
                fill(row, pos + 1, left - k, row_sums, cols)
                cols[b] += k
            table[cell] = 0

        for vec in self.minimal:
            for target in other.minimal:
                if sum(target) == sum(vec):
                    fill(0, 0, vec[0], vec, list(target))
        return members, tables

    def shared(
        self,
        other: PrimitiveProfile,
        index_map: list[int] | None = None,
        *,
        max_vectors: int = LIMITS.max_vectors.default,
    ) -> int:
        """Number of this ensemble's supports whose image under `index_map`
        (this space's index to the other's; identity if None) is a support of
        the other ensemble."""
        members, tables = self._joint_tables(other, index_map, max_vectors)
        return _support_count(tuple(map(len, members)), tables)

    def shared_supports(
        self,
        other: PrimitiveProfile,
        index_map: list[int] | None = None,
        *,
        max_vectors: int = LIMITS.max_vectors.default,
        max_supports: int = LIMITS.max_supports.default,
    ) -> list[tuple[int, ...]]:
        """The supports `shared` counts, as sorted index tuples of this space."""
        members, tables = self._joint_tables(other, index_map, max_vectors)
        check_size("listing of {} shared supports",
                   _support_count(tuple(map(len, members)), tables),
                   max_supports, LIMITS.max_supports)
        # shared supports are primitive here, so they form an antichain
        return _support_rows(members, tables)


def primitive_profile(
    space: HistorySpace, *, max_vectors: int = LIMITS.max_vectors.default
) -> PrimitiveProfile:
    """The primitive profile of a fixed-final space; dualises once."""
    classes = amplitude_classes(space)
    minimal = minimal_preclusive_vectors(classes, max_vectors=max_vectors)
    return PrimitiveProfile(classes, tuple(minimal))


def count_primitive(
    space: HistorySpace, *, max_vectors: int = LIMITS.max_vectors.default
) -> int:
    """Number of primitive coevents, without expanding supports."""
    return primitive_profile(space, max_vectors=max_vectors).count


def enumerate_primitive(
    space: HistorySpace,
    *,
    max_supports: int = LIMITS.max_supports.default,
    max_vectors: int = LIMITS.max_vectors.default,
) -> list[MultiplicativeCoevent]:
    """All primitive coevents of a fixed-final space, in canonical index order.

    Same-class histories are interchangeable, so each minimal preclusive
    count vector expands into every way of choosing that many members
    per class; `PrimitiveProfile.expand` does it for a profile at hand.
    """
    return primitive_profile(space, max_vectors=max_vectors).expand(max_supports=max_supports)


def enumerate_primitive_bruteforce(
    space: HistorySpace, *, max_subsets: int = LIMITS.max_subsets.default
) -> list[MultiplicativeCoevent]:
    """Primitive coevents by testing every subset of the space.

    A subset is contained in a precluded event iff each final sector's
    part is contained in a zero-sum subset of that sector, found from
    the histories' exact amplitude sums (no class shortcut).  Each
    sector's zero-sum table, closed downward, says which parts are; the
    sectors are consecutive runs (`measure._bruteforce_sectors`), so the
    space's table is the outer AND of theirs, and the primitive supports
    are its minimal unmarked subsets, in size-then-index order.
    """
    covered, low_bits = None, 0
    for rows in _bruteforce_sectors(space, max_subsets):
        part = close_downward(zero_sum_subsets(rows), len(rows))
        covered = part if covered is None else outer_and(part, len(rows), covered, low_bits)
        low_bits += len(rows)
    masks = list(bit_indices(minimal_uncovered(covered, space.size)))
    masks.sort(key=lambda m: (m.bit_count(), Event(space, m).indices()))
    return [MultiplicativeCoevent(Event(space, m)) for m in masks]


def overlap(a_space: HistorySpace, b_space: HistorySpace) -> int:
    """Number of supports primitive for both spaces (as history-index sets)."""
    return primitive_profile(a_space).shared(primitive_profile(b_space))


def common_supports(
    a_space: HistorySpace, b_space: HistorySpace
) -> list[tuple[int, ...]]:
    """Supports shared by the two spaces' primitive coevents, sorted."""
    return primitive_profile(a_space).shared_supports(primitive_profile(b_space))
