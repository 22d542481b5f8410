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
the box 0 <= k <= counts, found by walking the free classes only.
"""
from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt
from .errors import LIMITS, WrongSpaceError, check_size
from .histories import AmplitudeClasses, Event, HistorySpace, amplitude_classes
from .subsetwalk import walk_count_table

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

LATTICE_BLOCK = 1 << 16  # count vectors per vectorised verdict block


# -- per-sector count-vector tables -------------------------------------------


@dataclass(frozen=True, eq=False)
class SectorTable:
    """Zero-sum structure of one final sector's amplitude classes."""

    final: int
    class_ids: tuple[int, ...]  # global class indices, in class order
    values: tuple[CycInt, ...]
    counts: tuple[int, ...]
    zero_vectors: tuple[tuple[int, ...], ...]
    maximal_zero: tuple[tuple[int, ...], ...]

    def extendable(self, vec: tuple[int, ...]) -> bool:
        """True iff some zero-sum count vector dominates `vec` componentwise."""
        return any(all(k <= m for k, m in zip(vec, mx)) for mx in self.maximal_zero)


@dataclass(frozen=True)
class _Kernel:
    """Integer reduced echelon form of one sector's class-value matrix A.

    Column j of A holds the canonical coordinates of class j's value, so
    a count vector k is zero-sum exactly when A k = 0.  Pivot row r reads

        denoms[r] * k[pivots[r]] + sum_j coeffs[j][r] * k[free[j]] = 0,

    with denoms[r] > 0: each pivot class is fixed by the free classes.
    """

    pivots: tuple[int, ...]
    denoms: tuple[int, ...]
    free: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]  # per free class, over the pivot rows


@functools.lru_cache(maxsize=256)
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


def _enumerate_zero_vectors(
    values: tuple[CycInt, ...], counts: tuple[int, ...], order: int, max_vectors: int
) -> list[tuple[int, ...]]:
    """Zero-sum count vectors in the box 0 <= k <= counts, in lexicographic order.

    Only the box of the kernel's free classes is walked; each pivot class
    is solved exactly and kept when integral and within its count.  The
    values' canonical coordinates already carry their common `order`.
    Each pivot row's partial sum over the free classes is carried from
    digit to digit, and at every digit the range of the digit is cut to
    values for which the remaining free classes can still bring every
    pivot class into its count.
    """
    kernel = _sector_kernel(values, counts)
    _check_free_box(kernel, counts, max_vectors)
    pivots, denoms, free = kernel.pivots, kernel.denoms, kernel.free
    rows = range(len(pivots))
    caps = [counts[f] for f in free]
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

    out: list[tuple[int, ...]] = []
    vec = [0] * len(counts)

    def rec(i: int, sums: list[int]) -> None:
        if i == len(free):
            for r in rows:
                q, rem = divmod(-sums[r], denoms[r])
                if rem:
                    return
                vec[pivots[r]] = q
            out.append(tuple(vec))
            return
        col, lo, hi = kernel.coeffs[i], rest_lo[i + 1], rest_hi[i + 1]
        k_lo, k_hi = 0, caps[i]
        for r in rows:
            # some rest in [lo, hi] must give -limit <= sums + a*k + rest <= 0
            a, below, above = col[r], -limits[r] - sums[r] - hi[r], -sums[r] - lo[r]
            if a > 0:
                k_lo, k_hi = max(k_lo, -(-below // a)), min(k_hi, above // a)
            elif a < 0:
                k_lo, k_hi = max(k_lo, -(-above // a)), min(k_hi, below // a)
            elif below > 0 or above < 0:
                return
        if k_lo > k_hi:
            return
        cur = [s + a * k_lo for s, a in zip(sums, col)]
        for k in range(k_lo, k_hi + 1):
            vec[free[i]] = k
            rec(i + 1, cur)
            cur = [s + a for s, a in zip(cur, col)]

    rec(0, [0] * len(pivots))
    out.sort()
    return out


def _vector_maxima(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The vectors no other one dominates, in their given order.

    A vector dominating v has a larger sum, so scanning by decreasing sum
    only needs to test v against the maxima already found.
    """
    maxima: list[tuple[int, ...]] = []
    for v in sorted(vectors, key=sum, reverse=True):
        if not any(all(map(operator.le, v, m)) for m in maxima):
            maxima.append(v)
    keep = set(maxima)
    return [v for v in vectors if v in keep]


_tables_cache: "weakref.WeakKeyDictionary[AmplitudeClasses, dict[int, SectorTable]]"
_tables_cache = weakref.WeakKeyDictionary()


def sector_tables(
    classes: AmplitudeClasses, *, max_vectors: int = LIMITS.max_vectors.default
) -> dict[int, SectorTable]:
    """Zero-sum count-vector tables per final sector (cached per classes object).

    The free-box guard is checked on every call, before the cache lookup,
    so whether a call is refused never depends on earlier calls.
    """
    sectors = []
    for final, cids in classes.sectors.items():
        values = tuple(classes.classes[c].value for c in cids)
        counts = tuple(classes.classes[c].count for c in cids)
        _check_free_box(_sector_kernel(values, counts), counts, max_vectors)
        sectors.append((final, cids, values, counts))
    cached = _tables_cache.get(classes)
    if cached is not None:
        return cached
    order = classes.space.order
    tables: dict[int, SectorTable] = {}
    for final, cids, values, counts in sectors:
        zeros = _enumerate_zero_vectors(values, counts, order, max_vectors)
        tables[final] = SectorTable(
            final, tuple(cids), values, counts, tuple(zeros), tuple(_vector_maxima(zeros))
        )
    _tables_cache[classes] = tables
    return tables


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
    binomials; sectors are independent, so an unrestricted space yields
    the product of its sector counts.
    """
    total = 1
    for table in sector_tables(classes, max_vectors=max_vectors).values():
        binoms = [_binomial_row(c) for c in table.counts]
        total *= sum(
            math.prod(map(list.__getitem__, binoms, vec)) for vec in table.zero_vectors
        )
    return total


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
    return sorted(table.maximal_zero)


def preclusive_coevent_count_exponent(space: HistorySpace) -> int:
    """log2 of the number of preclusive coevents: 2**size minus the precluded count."""
    if space.final is None:
        raise WrongSpaceError("the exponent is defined on fixed-final spaces")
    return (1 << space.size) - count_precluded(amplitude_classes(space))


def count_precluded_bruteforce(
    space: HistorySpace,
    *,
    max_subsets: int | None = None,
    max_vectors: int = LIMITS.max_vectors.default,
    threads: int = 1,
) -> int:
    """Count zero-sum subsets by walking every subset of the space.

    The zero-sum verdict of every per-class count vector k is evaluated
    once, directly as A k = 0 over the whole count-vector lattice, where
    row block f of A holds the canonical coordinates of sector f's class
    values.  The split-half walk then reads one verdict per subset.
    Independent of :func:`count_precluded`, which never enumerates
    subsets, and of the kernel tables it sums over.
    """
    check_size("brute force over {} subsets", 1 << space.size, max_subsets,
               LIMITS.subset_ceiling)
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

    coords = [c.value.canonical() for c in classes.classes]
    rows = [
        [coords[c][j] if c in cids else 0 for c in range(len(coords))]
        for cids in classes.sectors.values()
        for j in range(len(coords[0]))
    ]
    largest = max(sum(abs(a) * k for a, k in zip(row, classes.counts)) for row in rows)
    if largest > np.iinfo(np.int64).max:
        raise OverflowError(f"partial sums up to {largest} overflow int64")
    matrix = np.asarray(rows, dtype=np.int64).T
    table = np.empty(lattice, dtype=bool)
    for lo in range(0, lattice, LATTICE_BLOCK):
        idx = np.arange(lo, min(lo + LATTICE_BLOCK, lattice), dtype=np.int64)
        digits = idx[:, None] // np.asarray(weights) % np.asarray(radix)
        table[lo : lo + idx.size] = ~(digits @ matrix).any(axis=1)

    bit_weight = [weights[classes.class_of[b]] for b in range(space.size)]
    return walk_count_table(space.size, bit_weight, table, threads=threads)
