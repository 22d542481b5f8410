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
the box 0 <= k <= counts.  One walk over the kernel's free classes, each
from its highest count down, visits them without listing them: it sums
their binomial products into the precluded count and keeps the vectors
no earlier one dominates, which are exactly the maxima.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

from .cyclotomic import CycInt
from .errors import LIMITS, WrongSpaceError, check_size
from .histories import AmplitudeClasses, Event, HistorySpace, amplitude_classes
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

LATTICE_BLOCK = 1 << 16  # count vectors whose sums are listed at once


# -- per-sector count-vector tables -------------------------------------------


class SectorTable(Frozen):
    """Zero-sum structure of one final sector's amplitude classes.

    Compares by identity.
    """

    _fields = ("final", "class_ids", "values", "counts", "precluded", "maximal_zero")
    final: int
    class_ids: tuple[int, ...]  # global class indices, in class order
    values: tuple[CycInt, ...]
    counts: tuple[int, ...]
    precluded: int  # zero-sum subsets of the sector, the empty one included
    maximal_zero: tuple[tuple[int, ...], ...]  # in ascending lexicographic order

    def __init__(self, final, class_ids, values, counts, precluded, maximal_zero):
        vars(self).update(
            final=final, class_ids=class_ids, values=values, counts=counts,
            precluded=precluded, maximal_zero=maximal_zero,
        )

    def extendable(self, vec: tuple[int, ...]) -> bool:
        """True iff some zero-sum count vector dominates `vec` componentwise."""
        return any(all(k <= m for k, m in zip(vec, mx)) for mx in self.maximal_zero)


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
    box = math.prod(counts[f] + 1 for f in kernel.free)
    free = f"({len(kernel.free)} free of {len(counts)} classes)"
    check_size("free-class box of {} points " + free, box, max_vectors, LIMITS.max_vectors)


@functools.lru_cache(maxsize=256)
def _kernel_walk(
    kernel: _Kernel, counts: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Zero-sum subset count and maximal zero-sum count vectors, in one walk.

    Only the box of the kernel's free classes is walked; each pivot class
    is solved exactly and kept when integral.  Each pivot row's partial
    sum over the free classes is carried from digit to digit, and at
    every digit the range of the digit is cut to values for which the
    remaining free classes can still bring every pivot class into its
    count.  A zero-sum vector k adds prod_c C(counts_c, k_c) to the count.

    Every free digit runs from high to low.  A zero-sum vector is fixed
    by its free part, so any vector dominating k has a lexicographically
    larger free part and is reached before k: k is maximal iff no
    maximum found so far dominates it.  `above[c][v]` is the bitmask of
    the maxima found so far whose count in class c is at least v, so
    that test is one AND per class.  The maxima are returned in
    ascending lexicographic order.

    Memoised by content: a space rebuilt for another query walks no
    second time.  The results hold no space.
    """
    pivots, denoms, free = kernel.pivots, kernel.denoms, kernel.free
    rows = range(len(pivots))
    caps = [counts[f] for f in free]
    binoms = [_binomial_row(c) for c in counts]
    # pivot row r needs its free sum s_r in [-limits[r], 0]
    limits = [d * counts[p] for p, d in zip(pivots, denoms)]
    # rest_lo[i][r], rest_hi[i][r]: range of row r's sum over free digits i..
    rest_lo = [[0] * len(pivots) for _ in range(len(free) + 1)]
    rest_hi = [[0] * len(pivots) for _ in range(len(free) + 1)]
    for i in range(len(free) - 1, -1, -1):
        for r in rows:
            span = kernel.coeffs[i][r] * caps[i]
            rest_lo[i][r] = rest_lo[i + 1][r] + min(0, span)
            rest_hi[i][r] = rest_hi[i + 1][r] + max(0, span)

    precluded = 0
    maxima: list[tuple[int, ...]] = []
    above = [[0] * (c + 1) for c in counts]
    vec = [0] * len(counts)

    def rec(i: int, sums: list[int], weight: int) -> None:
        nonlocal precluded
        if i == len(free):
            for r in rows:
                q, rem = divmod(-sums[r], denoms[r])
                if rem:
                    return
                vec[pivots[r]] = q
                weight *= binoms[pivots[r]][q]
            precluded += weight
            dominated = -1
            for masks, k in zip(above, vec):
                dominated &= masks[k]
                if not dominated:
                    break
            else:
                return
            bit = 1 << len(maxima)
            maxima.append(tuple(vec))
            for masks, k in zip(above, vec):
                for v in range(k + 1):
                    masks[v] |= bit
            return
        col, lo, hi = kernel.coeffs[i], rest_lo[i + 1], rest_hi[i + 1]
        k_lo, k_hi = 0, caps[i]
        for r in rows:
            # some rest in [lo, hi] must give -limit <= sums + a*k + rest <= 0
            a, least, most = col[r], -limits[r] - sums[r] - hi[r], -sums[r] - lo[r]
            if a > 0:
                k_lo, k_hi = max(k_lo, -(-least // a)), min(k_hi, most // a)
            elif a < 0:
                k_lo, k_hi = max(k_lo, -(-most // a)), min(k_hi, least // a)
            elif least > 0 or most < 0:
                return
        row = binoms[free[i]]
        cur = [s + a * k_hi for s, a in zip(sums, col)]
        for k in range(k_hi, k_lo - 1, -1):
            vec[free[i]] = k
            rec(i + 1, cur, weight * row[k])
            cur = [s - a for s, a in zip(cur, col)]

    rec(0, [0] * len(pivots), 1)
    return precluded, tuple(sorted(maxima))


def sector_tables(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> dict[int, SectorTable]:
    """Zero-sum count-vector tables per final sector.

    Built on every call from the memoised kernel walks.  The free-box
    guard is checked for every sector before any walk, so whether a
    call is refused never depends on earlier calls.
    """
    sectors = []
    for final, cids in classes.sectors.items():
        values = tuple(classes.classes[c].value for c in cids)
        counts = tuple(classes.classes[c].count for c in cids)
        kernel = _sector_kernel(values, counts)
        _check_free_box(kernel, counts, max_vectors)
        sectors.append((final, cids, values, counts, kernel))
    return {
        final: SectorTable(final, tuple(cids), values, counts, *_kernel_walk(kernel, counts))
        for final, cids, values, counts, kernel in sectors
    }


# -- measure and preclusion ----------------------------------------------------


def event_sum(event: Event) -> CycInt:
    """Exact amplitude sum of an event on a fixed-final space."""
    space = event.space
    if space.final is None:
        raise WrongSpaceError(
            "event_sum needs a fixed-final space; use sector_sums on unrestricted spaces"
        )
    acc = CycInt.zero(space.order)
    for i in event.iter_indices():
        acc = acc + space.amps[i]
    return acc


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


def count_precluded_bruteforce(
    space: HistorySpace,
    *,
    max_subsets: int = LIMITS.max_subsets.ceiling,
    max_vectors: int = LIMITS.max_vectors.default,
    threads: int = 1,
) -> int:
    """Count zero-sum subsets by walking every subset of the space.

    The zero-sum verdict of every per-class count vector k is evaluated
    once, directly as A k = 0 over the whole count-vector lattice, where
    row block f of A holds the canonical coordinates of sector f's class
    values.  The split-half walk then adds up the verdict of every
    subset, reading it once per distinct pair of half sums weighted by
    how many subsets share that pair.  Independent of
    :func:`count_precluded`, which never enumerates subsets, and of the
    kernel walk behind it.  `threads` is accepted and changes nothing.
    """
    check_size("brute force over {} subsets", 1 << space.size, max_subsets,
               LIMITS.max_subsets)
    classes = amplitude_classes(space)
    radix = [c + 1 for c in classes.counts]
    lattice = math.prod(radix)
    check_size("count-vector lattice of {} points", lattice, max_vectors,
               LIMITS.max_vectors)
    # weight of class i in the mixed-radix index (row-major)
    weights = [0] * len(radix)
    w = 1
    for i in range(len(radix) - 1, -1, -1):
        weights[i] = w
        w *= radix[i]

    # class i's column of A: its canonical coordinates in its sector's block
    coords = [c.value.canonical() for c in classes.classes]
    dim = len(coords[0])
    width = dim * len(classes.sectors)
    column = [()] * len(coords)
    for pos, cids in enumerate(classes.sectors.values()):
        for c in cids:
            column[c] = (0,) * (dim * pos) + tuple(coords[c]) + (0,) * (width - dim * (pos + 1))
    # packed per history, so the base bounds every lattice point's sum
    packed = dict(zip(classes.class_of, pack_rows([column[c] for c in classes.class_of])))
    values = [packed[c] for c in range(len(coords))]
    cut = len(radix)
    while cut and math.prod(radix[cut - 1 :]) <= LATTICE_BLOCK:
        cut -= 1
    inner = _lattice_sums(values[cut:], radix[cut:])
    table = bytearray(lattice)
    for q, outer in enumerate(_lattice_sums(values[:cut], radix[:cut])):
        for i in _positions(inner, -outer):
            table[q * len(inner) + i] = 1

    bit_weight = [weights[classes.class_of[b]] for b in range(space.size)]
    return walk_count_table(space.size, bit_weight, table)


def _positions(items: list[int], x: int) -> Iterator[int]:
    """Indices of x in the list, each found by `list.index`, which scans in C."""
    i = -1
    while True:
        try:
            i = items.index(x, i + 1)
        except ValueError:
            return
        yield i


def _lattice_sums(values: list[int], radix: list[int]) -> list[int]:
    """Σ_i k_i·values[i] at every point 0 <= k < radix, in row-major order."""
    sums = [0]
    for v, r in zip(values, radix):
        steps = [k * v for k in range(r)]
        sums = [s + d for s in sums for d in steps]
    return sums
