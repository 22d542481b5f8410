"""Split-half walks over all subsets of a small ground set.

A subset of {0..N-1} is the bitmask h << L | l, where l holds its low L
elements and h its high N-L ones, so any additive per-subset statistic
is the statistic of l plus that of h.  Both halves' statistics are
tabulated once, 2**L and 2**(N-L) entries, each table built by doubling
one element at a time (meet in the middle: Horowitz & Sahni, J. ACM 21,
1974).  Then, for each high subset h, the 2**L subsets sharing it get
their verdicts in one vectorised step.  Every subset is still judged on
its own; memory stays O(2**L + 2**(N-L)), never O(2**N).

`chunk` is the number of subsets per vectorised step: L is
min(N, floor(log2(chunk))).  `threads` splits the high subsets into
that many contiguous runs on a thread pool; results are identical for
any value of either.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "gray",
    "walk_count_table",
    "zero_sum_subsets",
    "antichain_maxima",
    "submasks",
    "minimal_uncovered",
]

DEFAULT_CHUNK = 1 << 16

_T = TypeVar("_T")


def gray(i: int) -> int:
    """The i-th subset in Gray-code order; consecutive ones differ in one element."""
    return i ^ (i >> 1)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows over every subset of them, indexed by bitmask."""
    sums = np.zeros((1,) + rows.shape[1:], dtype=np.int64)
    for row in rows:
        sums = np.concatenate([sums, sums + row])
    return sums


def _halves(rows: np.ndarray, chunk: int) -> tuple[int, np.ndarray, np.ndarray]:
    """L, then the subset sums of the low L rows and of the rest."""
    low_bits = min(len(rows), max(chunk, 1).bit_length() - 1)
    return low_bits, _subset_sums(rows[:low_bits]), _subset_sums(rows[low_bits:])


def _run_high(fn: Callable[[int, int], _T], num_high: int, threads: int) -> list[_T]:
    """fn(lo, hi) over `threads` contiguous runs of the high subsets, in order."""
    step = -(-num_high // max(threads, 1))
    ranges = [(lo, min(lo + step, num_high)) for lo in range(0, num_high, step)]
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def walk_count_table(
    num_bits: int,
    bit_weight: Sequence[int],
    table: np.ndarray,
    *,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> int:
    """Count subsets S of {0..num_bits-1} for which table[sum of weights of S] holds.

    `bit_weight[b]` is the (nonnegative) contribution of element b to the
    table index; the empty subset indexes slot 0.  Reads the table once
    for every one of the 2**num_bits subsets.
    """
    weights = np.asarray(list(bit_weight), dtype=np.int64).reshape(num_bits)
    flat = np.asarray(table, dtype=bool).ravel()
    if int(weights.min(initial=0)) < 0 or sum(map(int, weights)) >= flat.size:
        raise ValueError("bit weights must be nonnegative and index inside the table")
    _, low, high = _halves(weights, chunk)

    def do_run(lo: int, hi: int) -> int:
        index = np.empty_like(low)
        verdict = np.empty(low.shape, dtype=bool)
        hits = 0
        for offset in high[lo:hi]:
            np.add(low, offset, out=index)
            np.take(flat, index, out=verdict)
            hits += int(np.count_nonzero(verdict))
        return hits

    return sum(_run_high(do_run, len(high), threads))


def zero_sum_subsets(
    rows: Sequence[Sequence[int]],
    *,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> list[int]:
    """Bitmasks of every subset whose elementwise integer-vector sum is zero.

    `rows[b]` is the vector attached to element b.  The empty subset
    always qualifies.  Masks come out ascending with no sort, since the
    mask h << L | l is visited by increasing h, then increasing l.
    """
    num_bits = len(rows)
    if num_bits == 0:
        return [0]
    largest = max((abs(x) for r in rows for x in r), default=0)
    if largest * num_bits > np.iinfo(np.int64).max:
        raise OverflowError("subset sums of these rows may overflow int64")
    mat = np.asarray([list(r) for r in rows], dtype=np.int64)
    low_bits, low, high = _halves(mat, chunk)

    def do_run(lo: int, hi: int) -> list[int]:
        acc = np.empty_like(low)
        found: list[int] = []
        for h in range(lo, hi):
            np.add(low, high[h], out=acc)
            found.extend((np.flatnonzero(~acc.any(axis=1)) + (h << low_bits)).tolist())
        return found

    return [m for part in _run_high(do_run, len(high), threads) for m in part]


def antichain_maxima(masks: Sequence[int]) -> list[int]:
    """Inclusion-maximal elements of a family of bitmasks, sorted ascending."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (-x.bit_count(), x)):
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    kept.sort()
    return kept


def submasks(mask: int) -> Iterator[int]:
    """Every subset of `mask`, including itself and 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def minimal_uncovered(covered: np.ndarray, num_bits: int) -> np.ndarray:
    """Mark masks that are uncovered while all their one-bit deletions are covered.

    `covered` is a boolean array indexed by bitmask, length 2**num_bits.
    """
    covered = np.asarray(covered, dtype=bool).ravel()
    ok = ~covered
    for b in range(num_bits):
        cov3 = covered.reshape(-1, 2, 1 << b)
        ok3 = ok.reshape(-1, 2, 1 << b)
        ok3[:, 1, :] &= cov3[:, 0, :]
    return ok
