"""Split-half walks over all subsets of a small ground set, and bitsets
indexed by subset mask.

A subset of {0..N-1} is the bitmask h << L | l, where l holds its low L
elements and h its high N-L ones, so any additive per-subset statistic
is the statistic of l plus that of h (meet in the middle: Horowitz &
Sahni, J. ACM 21, 1974).  Both walks split evenly: L = ceil(N/2).  The
count walk tabulates each half's distinct sums, with how many of the
half's subsets reach each, by doubling one element at a time, and looks
up each distinct high sum h once, counting the low subsets that sum to
-h; its memory is the number of distinct half sums.  The zero-sum walk
lists every subset sum of each half and groups the low subsets by their
sum, so the 2**L subsets sharing each high subset get their verdicts as
one bitset.

A table over N elements is one Python int of 2**N bits: bit m is the
verdict of the subset with bitmask m.  Integer vectors are summed
packed (`pack_rows`), so every sum is exact and nothing can overflow.

`close_downward` and `minimal_uncovered` sweep once per bit b.  The
table is cut into blocks of 2**K masks, K = min(N, _BLOCK_BITS); for
b < K a mask and its bit-b partner lie in the same block, and the sweep
is one shift of the block and one AND with the positions lacking bit b.
For b >= K the partners are whole blocks, paired by block index.
Blocks stay small enough for the cache however large the table is.
"""
from __future__ import annotations

import operator
from typing import Sequence

from .histories import mask_of

__all__ = [
    "pack_rows",
    "walk_count_table",
    "zero_sum_subsets",
    "outer_and",
    "close_downward",
    "minimal_uncovered",
]

_BLOCK_BITS = 16  # masks per swept block: 2**16 bits, 8 KiB (at least 3)


def pack_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Each integer row as one int, in balanced base B = 2 * bound + 1.

    `bound` is the largest sum of one coordinate's absolute values over
    all rows.  Every coordinate of every subset sum of the rows then
    lies strictly between -B/2 and B/2, so those digits are recovered
    uniquely and a subset's packed sum is 0 exactly when its vector sum
    is 0.
    """
    if not rows:
        return []
    bound = max((sum(map(abs, column)) for column in zip(*rows)), default=0)
    base = 2 * bound + 1
    return [sum(x * base**j for j, x in enumerate(r)) for r in rows]


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Sum of the values over every subset of them, indexed by bitmask."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def _sum_counts(values: Sequence[int]) -> dict[int, int]:
    """Each distinct subset sum of the values, with how many subsets reach it."""
    counts = {0: 1}
    for v in values:
        grown = dict(counts)
        for s, c in counts.items():
            grown[s + v] = grown.get(s + v, 0) + c
        counts = grown
    return counts


def _join(chunks: list[int], width: int) -> int:
    """One int holding chunks[i] at bits i*width up to (i+1)*width."""
    if len(chunks) == 1:
        return chunks[0]
    if width % 8:
        return int("".join(format(c, f"0{width}b") for c in reversed(chunks)), 2)
    size = width // 8
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in chunks), "little")


def walk_count_table(values: Sequence[int]) -> int:
    """Number of subsets of `values` whose sum is 0, the empty one included.

    Each distinct high-half sum h is looked up once among the low half's
    distinct sums, and counts its multiplicity times that of -h.  The
    name stays from when it counted a verdict table's true entries:
    `bench/worker.py` times the brute force's walk by rebinding
    `measure.walk_count_table`.
    """
    low_bits = (len(values) + 1) // 2
    low, high = _sum_counts(values[:low_bits]), _sum_counts(values[low_bits:])
    return sum(c * low.get(-h, 0) for h, c in high.items())


def zero_sum_subsets(rows: Sequence[Sequence[int]]) -> int:
    """Bitset over the 2**len(rows) subsets: does the subset's integer-vector sum vanish?

    `rows[b]` is the vector attached to element b, and bit m of the
    result is the verdict of the subset with bitmask m.  The empty
    subset always qualifies.
    """
    packed = pack_rows(rows)
    low_bits = (len(packed) + 1) // 2
    low, high = _subset_sums(packed[:low_bits]), _subset_sums(packed[low_bits:])
    wanted = set(map(operator.neg, high))
    groups: dict[int, list[int]] = {}
    for mask, s in enumerate(low):
        if s in wanted:
            groups.setdefault(s, []).append(mask)
    zero = {s: mask_of(masks) for s, masks in groups.items()}
    return _join([zero.get(-h, 0) for h in high], 1 << low_bits)


def outer_and(high: int, high_bits: int, low: int, low_bits: int) -> int:
    """Bitset over high_bits + low_bits elements: entry h << low_bits | l is
    high[h] and low[l], for bitsets `high` over high_bits elements and
    `low` over low_bits."""
    flags = format(high, f"0{1 << high_bits}b")[::-1]
    return _join([low if f == "1" else 0 for f in flags], 1 << low_bits)


def _lacking(b: int, k: int) -> int:
    """The masks below 2**k that lack bit b, as a bitset."""
    mask, width = (1 << (1 << b)) - 1, 2 << b
    while width < 1 << k:
        mask |= mask << width
        width <<= 1
    return mask


def _blocks(table: int, num_bits: int) -> tuple[list[int], int]:
    """The table cut into blocks of 2**k masks, and k."""
    k = min(num_bits, _BLOCK_BITS)
    if k == num_bits:
        return [table], k
    data = table.to_bytes(1 << (num_bits - 3), "little")
    size = 1 << (k - 3)
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)], k


def close_downward(table: int, num_bits: int) -> int:
    """The table with every subset of a marked mask marked.

    `table` is a bitset over the 2**num_bits masks.  One sweep per bit b
    ORs each mask holding b into the mask without it.
    """
    blocks, k = _blocks(table, num_bits)
    sweeps = [(1 << b, _lacking(b, k)) for b in range(k)]
    for i, t in enumerate(blocks):
        for shift, lacks in sweeps:
            t |= (t >> shift) & lacks
        blocks[i] = t
    for b in range(num_bits - k):
        step = 1 << b
        for i in range(len(blocks)):
            if not i & step:
                blocks[i] |= blocks[i | step]
    return _join(blocks, 1 << k)


def minimal_uncovered(covered: int, num_bits: int) -> int:
    """Mark masks that are uncovered while all their one-bit deletions are covered.

    `covered` is a bitset over the 2**num_bits masks.
    """
    blocks, k = _blocks(covered, num_bits)
    sweeps = [(1 << b, _lacking(b, k)) for b in range(k)]
    full = (1 << (1 << k)) - 1
    ok = []
    for c in blocks:
        t = full ^ c
        for shift, lacks in sweeps:
            t &= (c << shift) | lacks
        ok.append(t)
    for b in range(num_bits - k):
        step = 1 << b
        for i in range(len(ok)):
            if i & step:
                ok[i] &= blocks[i ^ step]
    return _join(ok, 1 << k)
