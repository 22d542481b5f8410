"""Slow reference implementations used only to check the library.

Everything here enumerates subsets, or whole count-vector boxes,
explicitly with plain Python and exact CycInt sums; nothing is shared
with the library's counting or enumeration code paths.
"""
from __future__ import annotations

import itertools

from qhopper import CycInt, Event, HistorySpace


def subset_sum_is_zero(space: HistorySpace, indices: tuple[int, ...]) -> bool:
    """Zero test for one subset via direct amplitude summation per sector."""
    sums: dict[int, CycInt] = {}
    for i in indices:
        f = space.histories[i][-1]
        sums[f] = sums.get(f, CycInt.zero(space.order)) + space.amps[i]
    return all(s.is_zero() for s in sums.values())


def precluded_subsets(space: HistorySpace) -> list[tuple[int, ...]]:
    """Every zero-sum subset, by exhausting the powerset."""
    out = []
    ids = range(space.size)
    for r in range(space.size + 1):
        for combo in itertools.combinations(ids, r):
            if subset_sum_is_zero(space, combo):
                out.append(combo)
    return out


def count_precluded(space: HistorySpace) -> int:
    return len(precluded_subsets(space))


def primitive_supports(space: HistorySpace) -> list[tuple[int, ...]]:
    """Primitive supports from first principles: containment in precluded sets."""
    precluded = [frozenset(c) for c in precluded_subsets(space)]

    def covered(s: frozenset[int]) -> bool:
        return any(s <= z for z in precluded)

    out = []
    ids = range(space.size)
    for r in range(1, space.size + 1):
        for combo in itertools.combinations(ids, r):
            s = frozenset(combo)
            if covered(s):
                continue
            if all(covered(s - {i}) for i in s):
                out.append(combo)
    return out


def event_of(space: HistorySpace, indices) -> Event:
    return Event.from_indices(space, indices)


# -- count-vector box references ---------------------------------------------------


def box_zero_vectors(
    values: tuple[CycInt, ...], counts: tuple[int, ...], order: int
) -> list[tuple[int, ...]]:
    """Every zero-sum point of the box 0 <= k <= counts, by walking the whole box.

    The class sum is carried down the recursion, so each box point costs
    one CycInt addition; points come out in lexicographic order.
    """
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(i: int, partial: CycInt) -> None:
        if i == len(values):
            if partial.is_zero():
                out.append(tuple(prefix))
            return
        cur = partial
        for k in range(counts[i] + 1):
            if k:
                cur = cur + values[i]
            prefix.append(k)
            rec(i + 1, cur)
            prefix.pop()

    rec(0, CycInt.zero(order))
    return out


def box_minimal_preclusive(
    counts: tuple[int, ...], zero_vectors: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Minimal box points that no zero-sum vector dominates, by a sorted box scan.

    The points some zero-sum vector dominates (the down-closure) are
    marked first, going down from the top of the box: a point is
    dominated iff it is zero-sum or one step up along some class is.
    Points are then visited by increasing total; one dominating an
    already-found minimal point cannot be minimal, and by upward closure
    the first unmarked point on any chain is.
    """
    box = sorted(
        itertools.product(*(range(c + 1) for c in counts)),
        key=lambda v: (sum(v), v),
    )
    dominated = set(zero_vectors)
    for vec in reversed(box):
        if vec not in dominated and any(
            k < c and vec[:i] + (k + 1,) + vec[i + 1 :] in dominated
            for i, (k, c) in enumerate(zip(vec, counts))
        ):
            dominated.add(vec)
    minimal: list[tuple[int, ...]] = []
    for vec in box:
        if any(all(k >= m for k, m in zip(vec, mv)) for mv in minimal):
            continue
        if vec not in dominated:
            minimal.append(vec)
    return minimal
