from __future__ import annotations

import random

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopper import subsetwalk
from qhopper.histories import bit_indices
from qhopper.subsetwalk import (
    close_downward,
    minimal_uncovered,
    outer_and,
    pack_rows,
    walk_count_table,
    zero_sum_subsets,
)


def bitset(flags) -> int:
    """The bitset whose bit m is flags[m]."""
    return sum(1 << m for m, f in enumerate(flags) if f)


def to_array(table: int, num_bits: int) -> np.ndarray:
    data = np.frombuffer(table.to_bytes(max(1, (1 << num_bits) // 8), "little"), np.uint8)
    return np.unpackbits(data, bitorder="little")[: 1 << num_bits].astype(bool)


def from_array(flags: np.ndarray) -> int:
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def zero_sum_count(values) -> int:
    """Subsets of the values summing to 0, by listing every subset."""
    return sum(
        sum(v for b, v in enumerate(values) if mask >> b & 1) == 0
        for mask in range(1 << len(values))
    )


def _walk_inputs():
    """Random values of 0 to 12 elements, and four of 11 or 12 elements
    whose subset sums collide as much, or as little, as they can."""
    rng = random.Random(3)
    inputs = []
    for _ in range(20):
        num_bits = rng.randint(0, 12)
        radix = rng.randint(2, 5)
        inputs.append([rng.randrange(radix) for _ in range(num_bits)])
        inputs.append([rng.randrange(radix) - radix // 2 for _ in range(num_bits)])
        dim = rng.randint(1, 3)
        inputs.append(pack_rows(
            [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(num_bits)]
        ))
    inputs.append([3] * 11)  # every subset of a size shares its sum
    inputs.append([1 << b for b in range(11)])  # no two subsets share a sum
    inputs.append([3] * 5 + [-3] * 6)
    inputs.append([0] * 12)  # every subset sums to 0
    return inputs


WALK_INPUTS = _walk_inputs()


@pytest.mark.parametrize("num_bits", sorted({len(values) for values in WALK_INPUTS}))
def test_walk_count_matches_direct_enumeration(num_bits):
    for values in WALK_INPUTS:
        if len(values) == num_bits:
            assert walk_count_table(values) == zero_sum_count(values)


def _zero_sum_inputs():
    """Rows of 0 to 10 integer vectors of dimension 1 to 3."""
    rng = random.Random(5)
    inputs = []
    for _ in range(20):
        num_bits = rng.randint(0, 10)
        dim = rng.randint(1, 3)
        inputs.append(
            [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(num_bits)]
        )
    return inputs


ZERO_SUM_INPUTS = _zero_sum_inputs()


@pytest.mark.parametrize("num_bits", sorted({len(rows) for rows in ZERO_SUM_INPUTS}))
def test_zero_sum_subsets_matches_direct_enumeration(num_bits):
    for rows in ZERO_SUM_INPUTS:
        if len(rows) != num_bits:
            continue
        dim = len(rows[0]) if rows else 1
        expected = []
        for mask in range(1 << num_bits):
            total = [0] * dim
            for b in range(num_bits):
                if (mask >> b) & 1:
                    total = [t + r for t, r in zip(total, rows[b])]
            if all(t == 0 for t in total):
                expected.append(mask)
        got = zero_sum_subsets(rows)
        assert 0 < got < 1 << (1 << num_bits)
        assert list(bit_indices(got)) == expected


@pytest.mark.parametrize("num_bits", range(14))
def test_split_walks_match_direct_enumeration(num_bits):
    # both walks split at ceil(num_bits / 2): odd and even sizes on either side
    rng = random.Random(num_bits)
    rows = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(num_bits)]
    zero = [False] * (1 << num_bits)
    for mask in range(1 << num_bits):
        members = [b for b in range(num_bits) if (mask >> b) & 1]
        if all(sum(rows[b][j] for b in members) == 0 for j in range(2)):
            zero[mask] = True
    assert walk_count_table(pack_rows(rows)) == sum(zero)
    assert zero_sum_subsets(rows) == bitset(zero)


def test_zero_sum_subsets_come_out_ascending_without_a_sort():
    # every subset of the all-zero rows qualifies, across many high runs
    rows = [(0, 0)] * 9
    got = zero_sum_subsets(rows)
    assert got == (1 << (1 << 9)) - 1


def test_zero_sum_subsets_empty_ground_set():
    assert list(bit_indices(zero_sum_subsets([]))) == [0]


def test_walk_count_empty_ground_set():
    assert walk_count_table([]) == 1


def test_close_downward_matches_direct_check():
    rng = random.Random(7)
    for _ in range(20):
        num_bits = rng.randint(0, 10)
        marked = [rng.random() < 0.05 for _ in range(1 << num_bits)]
        got = close_downward(bitset(marked), num_bits)
        tops = [m for m, f in enumerate(marked) if f]
        for mask in range(1 << num_bits):
            assert bool(got >> mask & 1) == any(mask & ~top == 0 for top in tops)


def test_close_downward_returns_the_closed_table():
    table = 1 << 0b101
    assert list(bit_indices(close_downward(table, 3))) == [0b000, 0b001, 0b100, 0b101]


def test_minimal_uncovered_matches_direct_check():
    rng = random.Random(11)
    for _ in range(20):
        num_bits = rng.randint(1, 10)
        covered = [rng.random() < 0.6 for _ in range(1 << num_bits)]
        covered[0] = True  # empty set is always inside some precluded event
        got = minimal_uncovered(bitset(covered), num_bits)
        for mask in range(1 << num_bits):
            expect = not covered[mask] and all(
                covered[mask ^ (1 << b)] for b in range(num_bits) if (mask >> b) & 1
            )
            assert bool(got >> mask & 1) == expect


def test_minimal_uncovered_finds_min_supersets():
    # covered = all subsets of {0,1,2}; minimal uncovered = sets with one extra bit
    num_bits = 5
    covered = close_downward(1 << 0b00111, num_bits)
    got = minimal_uncovered(covered, num_bits)
    hits = list(bit_indices(got))
    assert hits == [0b01000, 0b10000]


@pytest.mark.parametrize("num_bits", range(13))
def test_word_sweeps_match_the_per_bit_reference(num_bits, monkeypatch):
    rng = np.random.default_rng(num_bits)
    # blocks of 2**3 masks take the block-pairing path from 4 bits up
    for block_bits in (3, subsetwalk._BLOCK_BITS):
        monkeypatch.setattr(subsetwalk, "_BLOCK_BITS", block_bits)
        for density in (0.002, 0.05, 0.5):
            marked = rng.random(1 << num_bits) < density
            closed = close_downward(from_array(marked), num_bits)
            assert np.array_equal(
                to_array(closed, num_bits), oracles.close_downward_per_bit(marked, num_bits)
            )
            for covered in (marked, to_array(closed, num_bits)):
                assert np.array_equal(
                    to_array(minimal_uncovered(from_array(covered), num_bits), num_bits),
                    oracles.minimal_uncovered_per_bit(covered, num_bits),
                )


@pytest.mark.parametrize("low_bits", [0, 1, 2, 3, 4])
def test_outer_and_matches_the_per_pair_definition(low_bits):
    rng = random.Random(low_bits)
    for high_bits in range(4):
        high = [rng.random() < 0.5 for _ in range(1 << high_bits)]
        low = [rng.random() < 0.5 for _ in range(1 << low_bits)]
        got = outer_and(bitset(high), high_bits, bitset(low), low_bits)
        assert got == bitset(h and l for h in high for l in low)


vectors = st.integers(1, 4).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70)] * dim),
        max_size=8,
    )
)


@settings(derandomize=True, deadline=None)
@given(vectors, st.data())
def test_packed_sum_vanishes_exactly_when_the_vector_sum_does(rows, data):
    rows = rows + [tuple(-x for x in r) for r in rows]  # so that some subsets cancel
    chosen = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    members = [r for r, c in zip(rows, chosen) if c]
    packed = [p for p, c in zip(pack_rows(rows), chosen) if c]
    vector_zero = all(sum(column) == 0 for column in zip(*members))
    assert (sum(packed) == 0) == vector_zero
