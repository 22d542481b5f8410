"""Quantal measure, preclusion tests, and exact precluded-event counting.

Histories ending at different sites cannot interfere, so the measure of
an event is the sum over final sites of |sector amplitude sum|^2
(unnormalized).  An event is precluded exactly when every sector sum
vanishes; on a fixed-final space that reduces to one amplitude sum.

Counting is done over amplitude classes: a subset's sum depends only on
how many members it takes from each class, so the zero-sum predicate
lives on the small lattice of per-class count vectors and each zero-sum
vector contributes a product of binomial coefficients.  The zero-sum
vectors are the integer kernel points of the class-value matrix inside
the box 0 <= k <= counts.  Classes whose reduced columns are parallel
enter that matrix only through one sum per value direction, and every
direction is tabulated once by its distinct sums.  One walk over the
free directions' sums, each from its highest sum down, visits the
zero-sum vectors without listing them: it sums their binomial products
into the precluded count and keeps an antichain of the vectors no other
one dominates, which ends as exactly the maxima, in whatever order the
vectors come.  Classes of value 0 are not walked: they multiply the
count by 2^count and join every maximum whole.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple

from .cyclotomic import CycInt
from .errors import LIMITS, WrongSpaceError, check_size
from .histories import (
    AmplitudeClasses,
    Event,
    HistorySpace,
    amplitude_classes,
    bit_indices,
)
from .model import Frozen
from .subsetwalk import pack_rows, walk_count_table

__all__ = [
    "SectorTable",
    "sector_tables",
    "event_sum",
    "sector_sums",
    "quantal_measure_is_zero",
    "is_precluded",
    "count_precluded",
    "count_precluded_bruteforce",
    "preclusive_coevent_count_exponent",
    "maximal_zero_count_vectors",
]

# -- per-sector count-vector tables -------------------------------------------


class SectorTable(Frozen):
    """One final sector: its amplitude classes, their class-value kernel
    and, walked from that kernel on first use, its zero-sum structure.

    `sector_tables` builds one per sector and keeps it on the space's
    `AmplitudeClasses`.  Compares by identity.
    """

    _fields = ("final", "class_ids", "values", "counts", "kernel")
    final: int
    class_ids: tuple[int, ...]  # global class indices, in class order
    values: tuple[CycInt, ...]
    counts: tuple[int, ...]
    kernel: _Kernel

    @functools.cached_property
    def precluded(self) -> int:
        """Zero-sum subsets of the sector, the empty one included."""
        return _kernel_walk(self.kernel, self.counts)[0]

    @functools.cached_property
    def maximal_zero(self) -> tuple[tuple[int, ...], ...]:
        """Maximal zero-sum count vectors, in ascending lexicographic order."""
        return _kernel_walk(self.kernel, self.counts)[1]

    def extendable(self, vec: tuple[int, ...]) -> bool:
        """True iff some zero-sum count vector dominates `vec`, a vector of the box."""
        return self._maxima.at_least(vec) != 0

    @functools.cached_property
    def _maxima(self) -> _Antichain:
        return _Antichain(self.counts, self.maximal_zero)


class _Antichain:
    """Count vectors of the box 0 <= v <= counts, one bit each.

    `below[c][x]` is the bitmask of the vectors whose count in class c is
    less than x, for x = 0..counts[c] + 1, so the vectors at or below any
    v are one AND per class, and those at or above it one AND NOT.  It
    tests no dominance itself: its users add only vectors that keep it an
    antichain.  Once half the vectors added since the index was built are
    removed, it is rebuilt from the rest.
    """

    def __init__(self, counts: tuple[int, ...], vectors=()) -> None:
        self.counts = counts
        self.vectors: list[tuple[int, ...]] = []
        self.alive = 0  # bits of the vectors held
        self.below = [[0] * (c + 2) for c in counts]
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return self.alive.bit_count()

    def __iter__(self):
        return (self.vectors[j] for j in bit_indices(self.alive))

    def at_least(self, v) -> int:
        """Bits of the vectors w with w_c >= v_c in every class c."""
        hit = self.alive
        for masks, k in zip(self.below, v):
            hit &= ~masks[k]
            if not hit:
                break
        return hit

    def at_most(self, v) -> int:
        """Bits of the vectors w with w_c <= v_c in every class c."""
        hit = self.alive
        for masks, k in zip(self.below, v):
            hit &= masks[k + 1]
            if not hit:
                break
        return hit

    def add(self, v: tuple[int, ...]) -> None:
        bit = 1 << len(self.vectors)
        self.vectors.append(v)
        self.alive |= bit
        for masks, k in zip(self.below, v):
            for x in range(k + 1, len(masks)):
                masks[x] |= bit

    def remove(self, bits: int) -> list[tuple[int, ...]]:
        """Remove the vectors of `bits`, which must be held, and return them."""
        gone = [self.vectors[j] for j in bit_indices(bits)]
        self.alive ^= bits
        if 2 * len(self) < len(self.vectors):
            self.__init__(self.counts, list(self))
        return gone


class _Kernel(NamedTuple):
    """Integer reduced echelon form of one sector's class-value matrix A.

    Column j of A holds the canonical coordinates of class j's value, so
    a count vector k is zero-sum exactly when A k = 0.  Pivot row r reads

        denoms[r] * k[pivots[r]] + sum_j coeffs[j][r] * k[free[j]] = 0,

    with denoms[r] > 0: each pivot class is fixed by the free classes.
    Compares and hashes by value, which keys `_kernel_walk`'s memo.
    """

    pivots: tuple[int, ...]
    denoms: tuple[int, ...]
    free: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]  # per free class, over the pivot rows


def _kernel(columns: tuple[tuple[int, ...], ...], counts: tuple[int, ...]) -> _Kernel:
    """Fraction-free Gauss-Jordan elimination, pivots on the largest classes first.

    Choosing pivot columns greedily by decreasing count gives the basis
    of largest total log-size, hence the smallest free box.
    """
    rows = [list(r) for r in zip(*columns)]
    pivots: list[int] = []
    for j in sorted(range(len(columns)), key=lambda j: (-counts[j], j)):
        top = len(pivots)
        r = next((r for r in range(top, len(rows)) if rows[r][j]), None)
        if r is None:
            continue
        g = math.gcd(*rows[r]) * (1 if rows[r][j] > 0 else -1)
        pivot_row = [a // g for a in rows[r]]
        rows[r] = rows[top]
        rows[top] = pivot_row
        p = pivot_row[j]
        for i, row in enumerate(rows):
            if i != top and row[j]:
                mixed = [a * p - b * row[j] for a, b in zip(row, pivot_row)]
                g = math.gcd(*mixed) or 1
                rows[i] = [a // g for a in mixed]
        pivots.append(j)
    free = tuple(j for j in range(len(columns)) if j not in pivots)
    return _Kernel(
        tuple(pivots),
        tuple(rows[r][j] for r, j in enumerate(pivots)),
        free,
        tuple(tuple(rows[r][f] for r in range(len(pivots))) for f in free),
    )


def _sector_kernel(values: tuple[CycInt, ...], counts: tuple[int, ...]) -> _Kernel:
    return _kernel(tuple(v.canonical() for v in values), counts)


def _check_free_box(kernel: _Kernel, counts: tuple[int, ...], max_vectors: int) -> None:
    # classes of value 0 are a factor of the walk's count, not a digit
    walked = [f for f, column in zip(kernel.free, kernel.coeffs) if any(column)]
    box = math.prod(counts[f] + 1 for f in walked)
    free = f"({len(walked)} free of {len(counts)} classes)"
    check_size("free-class box of {} points " + free, box, max_vectors, LIMITS.max_vectors)


def _directions(
    kernel: _Kernel,
) -> list[tuple[int | None, tuple[int, ...], list[tuple[int, int]]]]:
    """Classes grouped by the primitive direction u of their reduced column.

    Pivot p_r has column denoms[r]·e_r and free class f has column
    coeffs[f].  Each direction is (pivot row or None, u, classes), each
    class as (class, scale s) with column s·u; u's first nonzero entry is
    positive, and zero columns share the zero direction with scale 0.
    The pivots' directions come first, in row order, then the other
    directions in order of their first class.
    """
    rank = len(kernel.pivots)
    groups: dict[tuple[int, ...], tuple] = {}
    for r, (p, d) in enumerate(zip(kernel.pivots, kernel.denoms)):
        groups[(0,) * r + (1,) + (0,) * (rank - r - 1)] = (r, [(p, d)])
    for f, column in zip(kernel.free, kernel.coeffs):
        g = math.gcd(*column)
        if g:
            g = g if next(filter(None, column)) > 0 else -g
            column = tuple([a // g for a in column])
        groups.setdefault(column, (None, []))[1].append((f, g))
    return [(r, u, members) for u, (r, members) in groups.items()]


def _direction_table(
    members: list[tuple[int, int]], counts: tuple[int, ...], binoms: list[list[int]]
) -> dict[int, list]:
    """Each distinct sum t = sum_c s_c k_c over the box of one direction's
    classes, every s_c nonzero, to [the summed weight prod_c C(counts_c, k_c),
    the maximal count vectors over `members` in order].

    Built one class at a time from the first class's sums s·k, each with
    the one vector (k,).  A vector maximal at its sum has a prefix maximal
    at the prefix's sum, so extending the previous antichains gives every
    candidate.  Larger counts of the new class go first, and a candidate
    is kept when none kept at its sum dominates it.
    """
    (c, s), rest = members[0], members[1:]
    table = {s * k: [w, [(k,)]] for k, w in enumerate(binoms[c])}
    for c, s in rest:
        row = binoms[c]
        grown: dict[int, list] = {}
        for k in range(counts[c], -1, -1):
            for t, (w, maxima) in table.items():
                entry = grown.setdefault(t + s * k, [0, []])
                entry[0] += w * row[k]
                kept = entry[1]
                for m in maxima:
                    v = m + (k,)
                    if not any(all(a <= b for a, b in zip(v, x)) for x in kept):
                        kept.append(v)
        table = grown
    return table


@functools.lru_cache(maxsize=256)
def _kernel_walk(
    kernel: _Kernel, counts: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Zero-sum subset count and maximal zero-sum count vectors, in one walk.

    The walk runs over value directions (`_directions`).  Classes whose
    reduced columns are parallel, s_c·u, enter A k only through their
    direction's sum t_u = sum_c s_c k_c, so k is zero-sum iff
    sum_u t_u·u = 0.  Each direction is tabulated before the walk with
    its distinct sums, each sum's weight and its maximal vectors
    (`_direction_table`).  Classes of value 0 form the zero direction,
    which is not walked: every zero-sum vector takes them whole, and each
    multiplies the count by 2^count.

    The free directions are the digits, each over its sorted sums; each
    pivot direction u = e_r is solved exactly from them and kept when its
    table holds the sum.  Each pivot row's partial sum is carried from
    digit to digit, and at every digit the range of the digit is cut to
    sums for which the remaining digits can still bring every pivot
    direction into range.  A direction holds at most one pivot class, so
    its table is at most (pivot count + 1) times its part of the free
    box, and the walk visits at most the free directions' distinct sums:
    never more than the free-class box that the guard bounds.  A zero-sum
    vector k adds prod_c C(counts_c, k_c) to the count.

    Each zero-sum choice of sums gives the products of the directions'
    maximal vectors, and every product is offered to an `_Antichain`: it
    is kept when no kept vector dominates it, and it removes the kept
    ones it dominates, so the maxima do not depend on the walk's order.
    Digits run from high sums to low, each free direction oriented so
    that its larger vectors come first, which keeps removals rare.  No
    list of zero-sum vectors is held.  The maxima are returned in
    ascending lexicographic order.

    Neither the cuts nor the orientation changes a result; both are for
    speed.  At (7,2) standing final 0 the 10 free directions span 182 250
    choices of sums, and the cut walk takes about 1 ms against 0.3 s
    uncut.  At (3,8) plus final 1 the orientation keeps the walk at about
    36 ms against 0.5 s unoriented.

    Memoised by content: a space rebuilt for another query walks no
    second time.  The results hold no space.
    """
    rank = len(kernel.pivots)
    rows = range(rank)
    binoms = [_binomial_row(c) for c in counts]
    vec = [0] * len(counts)
    factor = 0  # log2 of what the classes of value 0 multiply the count by
    # pivot row r needs its sum over the free digits in [low[r], high[r]]
    low, high = [0] * rank, [0] * rank
    solved = []  # (row, {t: [weight, maxima]}, slot) per pivot direction
    digits = []  # (column, sums, weights, maxima, slot) per free direction
    spread = []  # the classes of each walked direction, by slot
    for r, u, members in _directions(kernel):
        if not any(u):
            for c, _ in members:
                vec[c] = counts[c]
                factor += counts[c]
            continue
        if r is None and sum(s * counts[c] for c, s in members) < 0:
            # walked from high sums down, the larger vectors come first
            u, members = tuple([-a for a in u]), [(c, -s) for c, s in members]
        table = _direction_table(members, counts, binoms)
        if r is None:
            ts = sorted(table)
            digits.append((u, ts, [table[t][0] for t in ts], [table[t][1] for t in ts],
                           len(spread)))
        else:
            solved.append((r, table, len(spread)))
            low[r], high[r] = -max(table), -min(table)
        spread.append([c for c, _ in members])
    # rest_lo[i][r], rest_hi[i][r]: range of row r's sum over digits i..
    rest_lo = [[0] * rank for _ in range(len(digits) + 1)]
    rest_hi = [[0] * rank for _ in range(len(digits) + 1)]
    for i in range(len(digits) - 1, -1, -1):
        column, ts = digits[i][:2]
        for r in rows:
            ends = (column[r] * ts[0], column[r] * ts[-1])
            rest_lo[i][r] = rest_lo[i + 1][r] + min(ends)
            rest_hi[i][r] = rest_hi[i + 1][r] + max(ends)

    precluded = 0
    kept = _Antichain(counts)
    fibers: list = [()] * len(spread)  # maximal vectors of each direction at its sum

    def rec(i: int, sums: list[int], weight: int) -> None:
        nonlocal precluded
        if i == len(digits):
            for r, table, slot in solved:
                entry = table.get(-sums[r])
                if entry is None:
                    return
                weight *= entry[0]
                fibers[slot] = entry[1]
            precluded += weight
            for picks in itertools.product(*fibers):
                for classes, ks in zip(spread, picks):
                    for c, k in zip(classes, ks):
                        vec[c] = k
                if not kept.at_least(vec):
                    kept.remove(kept.at_most(vec))
                    kept.add(tuple(vec))
            return
        column, ts, weights, maxima, slot = digits[i]
        least, most = ts[0], ts[-1]
        lo, hi = rest_lo[i + 1], rest_hi[i + 1]
        # a row with a = 0 needs no test: every table holds the sum 0, so every
        # row is reachable at digit 0, and each cut keeps every row reachable
        for r in rows:
            # some rest in [lo, hi] must give low <= sums + a*t + rest <= high
            a, under, over = column[r], low[r] - sums[r] - hi[r], high[r] - sums[r] - lo[r]
            if a > 0:
                least, most = max(least, -(-under // a)), min(most, over // a)
            elif a < 0:
                least, most = max(least, -(-over // a)), min(most, under // a)
        for j in range(bisect.bisect_right(ts, most) - 1, bisect.bisect_left(ts, least) - 1, -1):
            fibers[slot] = maxima[j]
            rec(i + 1, [s + a * ts[j] for s, a in zip(sums, column)], weight * weights[j])

    rec(0, [0] * rank, 1)
    return precluded << factor, tuple(sorted(kept))


def sector_tables(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> dict[int, SectorTable]:
    """Each final sector's `SectorTable` in ascending final order, built
    once per space from the classes' final sites and kept on `classes`.
    The free-box guard is checked for every sector on every call, before
    any walk, so whether a call is refused never depends on earlier calls.
    """
    tables = vars(classes).get("_sector_tables")
    if tables is None:
        tables = vars(classes)["_sector_tables"] = {}
        sectors: dict[int, list[int]] = {}
        for cid, c in enumerate(classes.classes):
            sectors.setdefault(c.final, []).append(cid)
        for final, cids in sorted(sectors.items()):
            values = tuple(classes.classes[c].value for c in cids)
            counts = tuple(classes.classes[c].count for c in cids)
            kernel = _sector_kernel(values, counts)
            tables[final] = SectorTable(final, tuple(cids), values, counts, kernel)
    for table in tables.values():
        _check_free_box(table.kernel, table.counts, max_vectors)
    return dict(tables)


# -- measure and preclusion ----------------------------------------------------


def event_sum(event: Event) -> CycInt:
    """Exact amplitude sum of an event on a fixed-final space."""
    space = event.space
    if space.final is None:
        raise WrongSpaceError(
            "event_sum needs a fixed-final space; use sector_sums on unrestricted spaces"
        )
    return sector_sums(event)[space.final]


def sector_sums(event: Event) -> dict[int, CycInt]:
    """Amplitude sum of the event's members per final site."""
    space = event.space
    finals = [space.final] if space.final is not None else list(range(space.spec.n))
    sums = {f: CycInt.zero(space.order) for f in finals}
    for i in event.iter_indices():
        f = space.histories[i][-1]
        sums[f] = sums[f] + space.amps[i]
    return sums


def quantal_measure_is_zero(event: Event) -> bool:
    """True iff the event's quantal measure (sum of |sector sum|^2) is zero."""
    return all(s.is_zero() for s in sector_sums(event).values())


def is_precluded(event: Event) -> bool:
    """Events of measure zero cannot happen; the empty event is precluded."""
    return quantal_measure_is_zero(event)


# -- counting -------------------------------------------------------------------


def count_precluded(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> int:
    """Exact number of zero-sum subsets (the empty set included).

    Per sector this is a sum over zero-sum count vectors of products of
    binomials, summed by the table's kernel walk; sectors are
    independent, so an unrestricted space yields the product of its
    sector counts.
    """
    tables = sector_tables(classes, max_vectors=max_vectors).values()
    return math.prod(table.precluded for table in tables)


def _binomial_row(c: int) -> list[int]:
    """C(c, 0..c), each entry from the last: C(c, k+1) = C(c, k) (c - k) / (k + 1)."""
    row = [1]
    for k in range(c):
        row.append(row[-1] * (c - k) // (k + 1))
    return row


def maximal_zero_count_vectors(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> list[tuple[int, ...]]:
    """Zero-sum count vectors not dominated by another (fixed-final spaces)."""
    if classes.space.final is None:
        raise WrongSpaceError("maximal zero vectors are defined per fixed-final sector")
    (table,) = sector_tables(classes, max_vectors=max_vectors).values()
    return list(table.maximal_zero)


def preclusive_coevent_count_exponent(space: HistorySpace) -> int:
    """log2 of the number of preclusive coevents: 2**size minus the precluded
    count (on an unrestricted space, the product of the sectors' counts)."""
    return (1 << space.size) - count_precluded(amplitude_classes(space))


def _bruteforce_sectors(space: HistorySpace, max_subsets: int) -> list[list[tuple[int, ...]]]:
    """Each final sector's canonical amplitude rows, in index order, once the
    brute-force guard admits the space.

    The final site is the most significant digit of the canonical index,
    so each sector is one contiguous run of n^T histories, on a
    fixed-final space and an unrestricted one alike.  Reads the space
    only: no amplitude class, count vector or kernel.
    """
    check_size("brute force over {} subsets", 1 << space.size, max_subsets,
               LIMITS.max_subsets)
    rows, run = [a.canonical() for a in space.amps], space.spec.n ** space.spec.steps
    return [rows[lo : lo + run] for lo in range(0, space.size, run)]


def count_precluded_bruteforce(
    space: HistorySpace,
    *,
    max_subsets: int = LIMITS.max_subsets.ceiling,
    threads: int = 1,
) -> int:
    """Count zero-sum subsets by walking every subset of the space.

    The count is the product of the sectors' counts of subsets whose
    packed amplitude sums vanish (`_bruteforce_sectors`), independent of
    :func:`count_precluded`.  The walk is called through this module's
    binding of `walk_count_table`, so that rebinding it times the walk.
    `threads` is accepted and changes nothing.
    """
    return math.prod(
        walk_count_table(pack_rows(rows)) for rows in _bruteforce_sectors(space, max_subsets)
    )
