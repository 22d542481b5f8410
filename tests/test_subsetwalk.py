from __future__ import annotations

import inspect
import random

import numpy as np
import pytest

from qhopper.subsetwalk import (
    antichain_maxima,
    minimal_uncovered,
    submasks,
    walk_count_table,
    zero_sum_subsets,
)


@pytest.mark.parametrize("threads", [1, 3])
def test_walk_count_matches_direct_enumeration(threads):
    rng = random.Random(3)
    for _ in range(20):
        num_bits = rng.randint(0, 12)
        radix = rng.randint(2, 5)
        weights = [rng.randrange(radix) for _ in range(num_bits)]
        size = max(sum(weights), 1) + 1
        table = np.array([rng.random() < 0.3 for _ in range(size)], dtype=bool)
        expected = 0
        for mask in range(1 << num_bits):
            idx = sum(w for b, w in enumerate(weights) if (mask >> b) & 1)
            expected += bool(table[idx])
        got = walk_count_table(num_bits, weights, table, threads=threads, chunk=97)
        assert got == expected


@pytest.mark.parametrize("threads", [1, 3])
def test_zero_sum_subsets_matches_direct_enumeration(threads):
    rng = random.Random(5)
    for _ in range(20):
        num_bits = rng.randint(0, 10)
        dim = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(num_bits)
        ]
        expected = []
        for mask in range(1 << num_bits):
            total = [0] * dim
            for b in range(num_bits):
                if (mask >> b) & 1:
                    total = [t + r for t, r in zip(total, rows[b])]
            if all(t == 0 for t in total):
                expected.append(mask)
        got = zero_sum_subsets(rows, threads=threads, chunk=61)
        assert got == expected


def _split_sizes(chunk):
    """num_bits on either side of the split: 0, L-1, L, L+1 and 2L+1."""
    low = chunk.bit_length() - 1
    return sorted({b for b in (0, low - 1, low, low + 1, 2 * low + 1) if b >= 0})


@pytest.mark.parametrize("chunk", [1, 2, 3, 61, 97, 1 << 4])
def test_split_walks_match_direct_enumeration(chunk):
    rng = random.Random(chunk)
    for num_bits in _split_sizes(chunk):
        weights = [rng.randrange(3) for _ in range(num_bits)]
        table = np.array([rng.random() < 0.4 for _ in range(sum(weights) + 1)])
        rows = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(num_bits)]
        hits, zero = 0, []
        for mask in range(1 << num_bits):
            members = [b for b in range(num_bits) if (mask >> b) & 1]
            hits += bool(table[sum(weights[b] for b in members)])
            if all(sum(rows[b][j] for b in members) == 0 for j in range(2)):
                zero.append(mask)
        for threads in (1, 2):
            assert walk_count_table(
                num_bits, weights, table, threads=threads, chunk=chunk
            ) == hits
            assert zero_sum_subsets(rows, threads=threads, chunk=chunk) == zero


def test_zero_sum_subsets_come_out_ascending_without_a_sort():
    # every subset of the all-zero rows qualifies, across many high runs
    rows = [(0, 0)] * 9
    for threads in (1, 3):
        assert zero_sum_subsets(rows, threads=threads, chunk=8) == list(range(1 << 9))
    source = inspect.getsource(zero_sum_subsets)
    assert ".sort(" not in source and "sorted(" not in source


def test_walk_count_refuses_weights_outside_the_table():
    with pytest.raises(ValueError):
        walk_count_table(2, [1, 1], np.array([True, True]))
    with pytest.raises(ValueError):
        walk_count_table(1, [-1], np.array([True, True]))


def test_zero_sum_subsets_empty_ground_set():
    assert zero_sum_subsets([]) == [0]


def test_walk_count_empty_ground_set():
    assert walk_count_table(0, [], np.array([True])) == 1
    assert walk_count_table(0, [], np.array([False])) == 0


def test_antichain_maxima():
    masks = [0b0001, 0b0011, 0b0101, 0b0111, 0b1000]
    assert antichain_maxima(masks) == [0b0111, 0b1000]
    assert antichain_maxima([0]) == [0]
    assert antichain_maxima([]) == []


def test_submasks_complete():
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


def test_minimal_uncovered_matches_direct_check():
    rng = random.Random(11)
    for _ in range(20):
        num_bits = rng.randint(1, 10)
        covered = np.array(
            [rng.random() < 0.6 for _ in range(1 << num_bits)], dtype=bool
        )
        covered[0] = True  # empty set is always inside some precluded event
        got = minimal_uncovered(covered.copy(), num_bits)
        for mask in range(1 << num_bits):
            expect = not covered[mask] and all(
                covered[mask ^ (1 << b)] for b in range(num_bits) if (mask >> b) & 1
            )
            assert bool(got[mask]) == expect


def test_minimal_uncovered_finds_min_supersets():
    # covered = all subsets of {0,1,2}; minimal uncovered = sets with one extra bit
    num_bits = 5
    covered = np.zeros(1 << num_bits, dtype=bool)
    for s in submasks(0b00111):
        covered[s] = True
    got = minimal_uncovered(covered, num_bits)
    hits = sorted(int(m) for m in np.nonzero(got)[0])
    assert hits == [0b01000, 0b10000]
