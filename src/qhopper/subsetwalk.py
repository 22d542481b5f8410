"""Split-half walks over all subsets of a small ground set, and bool tables
indexed by subset mask.

A subset of {0..N-1} is the bitmask h << L | l, where l holds its low L
elements and h its high N-L ones, so any additive per-subset statistic
is the statistic of l plus that of h.  Both halves' statistics are
tabulated once, 2**L and 2**(N-L) entries, each table built by doubling
one element at a time (meet in the middle: Horowitz & Sahni, J. ACM 21,
1974).  The count walk then reduces each half to its distinct sums and
their multiplicities, and judges each distinct pair of sums once,
weighted by the product of the two multiplicities; subsets with equal
sums share one verdict.  It keeps memory at O(2**L + 2**(N-L)).  The
zero-sum walk gives the 2**L subsets sharing each high subset their
verdicts in one vectorised step and returns them as one table of 2**N
bools.

`chunk` sets the split: L is min(N, floor(log2(chunk))).  Results are
identical for any value of it.

`close_downward` and `minimal_uncovered` work on a table of 2**N bools
with one reshape per bit: bit b of a mask is axis 1 of the
(-1, 2, 2**b) view.  Bits 0 to 2 are swept inside 64-bit words instead:
read as little-endian words, word w holds masks 8w..8w+7 as its bytes
0..7, the 8 masks that share their high bits.  A shift by 8 * 2**b bits
moves each byte onto its bit-b partner, and a byte mask keeps the masks
that lack bit b.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "walk_count_table",
    "zero_sum_subsets",
    "close_downward",
    "minimal_uncovered",
]

DEFAULT_CHUNK = 1 << 16

# bits of a mask swept inside a 64-bit word, and the words per block (a block's
# temporaries stay small however large the table is)
_WORD_BITS = 3
_BLOCK_WORDS = 1 << 16
# per bit b below _WORD_BITS: the shift from a byte to its bit-b partner, and
# the bytes of a word whose mask lacks bit b
_WORD_SWEEPS = tuple(
    (np.uint64(8 << b), np.uint64(sum(0xFF << 8 * j for j in range(8) if not j >> b & 1)))
    for b in range(_WORD_BITS)
)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows over every subset of them, indexed by bitmask."""
    sums = np.zeros((1,) + rows.shape[1:], dtype=np.int64)
    for row in rows:
        sums = np.concatenate([sums, sums + row])
    return sums


def _halves(rows: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The subset sums of the low L rows, then those of the rest."""
    low_bits = min(len(rows), max(chunk, 1).bit_length() - 1)
    return _subset_sums(rows[:low_bits]), _subset_sums(rows[low_bits:])


def walk_count_table(
    num_bits: int,
    bit_weight: Sequence[int],
    table: np.ndarray,
    *,
    chunk: int = DEFAULT_CHUNK,
) -> int:
    """Count subsets S of {0..num_bits-1} for which table[sum of weights of S] holds.

    `bit_weight[b]` is the (nonnegative) contribution of element b to the
    table index; the empty subset indexes slot 0.  Subsets with equal
    index sums share one table read, so the table is read at most once
    per pair of distinct half sums, never more than once per subset.
    """
    weights = np.asarray(list(bit_weight), dtype=np.int64).reshape(num_bits)
    flat = np.asarray(table, dtype=bool).ravel()
    if int(weights.min(initial=0)) < 0 or sum(map(int, weights)) >= flat.size:
        raise ValueError("bit weights must be nonnegative and index inside the table")
    low, high = _halves(weights, chunk)
    low_sums, low_counts = np.unique(low, return_counts=True)
    high_sums, high_counts = np.unique(high, return_counts=True)
    return sum(
        int(c) * int(low_counts[flat[low_sums + h]].sum())
        for h, c in zip(high_sums, high_counts)
    )


def zero_sum_subsets(
    rows: Sequence[Sequence[int]], *, chunk: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Table of 2**len(rows) bools: does the subset's integer-vector sum vanish?

    `rows[b]` is the vector attached to element b, and entry m of the
    table is the verdict of the subset with bitmask m.  The empty subset
    always qualifies.
    """
    num_bits = len(rows)
    if num_bits == 0:
        return np.ones(1, dtype=bool)
    largest = max((abs(x) for r in rows for x in r), default=0)
    if largest * num_bits > np.iinfo(np.int64).max:
        raise OverflowError("subset sums of these rows may overflow int64")
    mat = np.asarray([list(r) for r in rows], dtype=np.int64)
    low, high = _halves(mat, chunk)
    low_columns = low.T.copy()  # one contiguous array per coordinate
    zero = np.ones((len(high), len(low)), dtype=bool)
    hit = np.empty(len(low), dtype=bool)
    for h, offset in enumerate(high):
        # low sum + offset vanishes iff each coordinate equals -offset
        for column, x in zip(low_columns, offset):
            np.equal(column, -x, out=hit)
            zero[h] &= hit
    return zero.ravel()


def close_downward(table: np.ndarray, num_bits: int) -> np.ndarray:
    """Mark every subset of a marked mask, in place; returns the table.

    `table` is a boolean array indexed by bitmask, length 2**num_bits.
    One sweep per bit b ORs each mask holding b into the mask without it.
    """
    low = 0
    if num_bits >= _WORD_BITS:
        words = table.view("<u8")
        for lo in range(0, words.size, _BLOCK_WORDS):
            block = words[lo : lo + _BLOCK_WORDS]
            for shift, lacks in _WORD_SWEEPS:
                block |= (block >> shift) & lacks
        low = _WORD_BITS
    for b in range(low, num_bits):
        t3 = table.reshape(-1, 2, 1 << b)
        t3[:, 0, :] |= t3[:, 1, :]
    return table


def minimal_uncovered(covered: np.ndarray, num_bits: int) -> np.ndarray:
    """Mark masks that are uncovered while all their one-bit deletions are covered.

    `covered` is a boolean array indexed by bitmask, length 2**num_bits.
    """
    covered = np.asarray(covered, dtype=bool).ravel()
    ok = ~covered
    low = 0
    if num_bits >= _WORD_BITS:
        ok_words, cov_words = ok.view("<u8"), covered.view("<u8")
        for lo in range(0, ok_words.size, _BLOCK_WORDS):
            block = ok_words[lo : lo + _BLOCK_WORDS]
            cov = cov_words[lo : lo + _BLOCK_WORDS]
            for shift, lacks in _WORD_SWEEPS:
                block &= (cov << shift) | lacks
        low = _WORD_BITS
    for b in range(low, num_bits):
        cov3 = covered.reshape(-1, 2, 1 << b)
        ok3 = ok.reshape(-1, 2, 1 << b)
        ok3[:, 1, :] &= cov3[:, 0, :]
    return ok
