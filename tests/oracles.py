"""Slow reference implementations used only to check the library.

Everything here enumerates subsets, or whole count-vector boxes,
explicitly with plain Python and exact CycInt sums; nothing is shared
with the library's counting or enumeration code paths, except for
`class_kernel_walk`.  That is the library's former kernel walk, one
digit per class, kept as the reference for the walk over value
directions where whole boxes are too large; it shares only the binomial
rows.  The ensemble observables are computed from each support's site
tuples, where the library reads index tables and permutes a space's own
index digits, and the bool table sweeps take one reshape of a bool array
per bit, where the library shifts int bitsets block by block.  The bitset
helpers set and clear one bit at a time.  The output writers' references
convert a whole value with `json_ready` first and then walk it, as the
CLI's text and csv writers once did; the library writes in one walk.
"""
from __future__ import annotations

import itertools

import numpy as np

from qhopper import CycInt, Event, HistorySpace, MultiplicativeCoevent
from qhopper.measure import _binomial_row
from qhopper.render import json_ready


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


def class_kernel_walk(kernel, counts: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
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

    Unmemoised: each call walks.
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


# -- site-tuple observables ---------------------------------------------------------


def hop_signs(sites: tuple[int, ...], n: int) -> list[int]:
    """+1 per forward hop, -1 per backward hop, 0 per rest or half-lattice hop."""
    signs = []
    for a, b in zip(sites, sites[1:]):
        d = (b - a) % n
        signs.append(0 if 2 * d in (0, n) else 1 if 2 * d < n else -1)
    return signs


def net_circulation(phi: MultiplicativeCoevent) -> int:
    """Net circulation summed over the support's site tuples."""
    n = phi.space.spec.n
    return sum(sum(hop_signs(h, n)) for h in phi.trajectories())


def rests(sites: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(sites, sites[1:]) if a == b)


def rest_profile(phi: MultiplicativeCoevent) -> tuple[int, ...]:
    """Sorted rest counts of the support's site tuples."""
    return tuple(sorted(rests(h) for h in phi.trajectories()))


def rest_events(space: HistorySpace) -> dict[str, Event]:
    """The named rest-count events, from the site tuples."""
    wanted = {"never_moves": space.spec.steps, "never_rests": 0, "rests_exactly_once": 1}
    return {
        name: Event.from_indices(
            space, (i for i, h in enumerate(space.histories) if rests(h) == k)
        )
        for name, k in wanted.items()
    }


def coevent_rows(
    supports: list[tuple[int, ...]], space: HistorySpace, events: dict[str, Event]
) -> list[tuple]:
    """Each support's csv cells from its site tuples: its id, the support,
    its net circulation, its sorted rest counts and, per event, 1 iff every
    member lies in the event."""
    n = space.spec.n
    rows = []
    for cid, row in enumerate(supports):
        sites = [space.histories[i] for i in row]
        verdicts = [int(all(ev.members >> i & 1 for i in row)) for ev in events.values()]
        circulation = sum(sum(hop_signs(h, n)) for h in sites)
        rows.append((cid, row, circulation, sorted(rests(h) for h in sites), *verdicts))
    return rows


def positive_only_event(space: HistorySpace) -> Event:
    """Histories whose every hop is forward or a rest, with at least one
    forward hop, judged hop by hop on the site tuples: a backward or
    half-lattice hop disqualifies."""
    n = space.spec.n

    def qualifies(sites: tuple[int, ...]) -> bool:
        forward = 0
        for a, b in zip(sites, sites[1:]):
            d = (b - a) % n
            if d == 0:
                continue
            if 2 * d >= n:
                return False
            forward += 1
        return forward > 0

    return Event.from_indices(space, (i for i, h in enumerate(space.histories) if qualifies(h)))


def rotate_sites(sites: tuple[int, ...], n: int, shift: int) -> tuple[int, ...]:
    return tuple((s + shift) % n for s in sites)


def rotate_support(phi: MultiplicativeCoevent, shift: int, target: HistorySpace) -> Event:
    """The support with every site rotated, looked up in `target` by site tuple."""
    n = phi.space.spec.n
    return Event.from_indices(
        target, (target.index_of(rotate_sites(h, n, shift)) for h in phi.trajectories())
    )


def rotation_symmetry(
    ensembles: list[list[MultiplicativeCoevent]], n: int
) -> dict[int, tuple[int, bool]]:
    """Per shift: coevents equal to their own rotation, and whether the union of
    the ensembles maps onto itself, comparing supports as sets of site tuples."""
    supports = [frozenset(phi.trajectories()) for ens in ensembles for phi in ens]
    pool = set(supports)
    out = {}
    for shift in range(n):
        rotated = [frozenset(rotate_sites(h, n, shift) for h in sup) for sup in supports]
        fixed = sum(1 for before, after in zip(supports, rotated) if before == after)
        out[shift] = (fixed, set(rotated) == pool)
    return out


# -- bool tables indexed by subset mask ------------------------------------------------


def close_downward_per_bit(table: np.ndarray, num_bits: int) -> np.ndarray:
    """Mark every subset of a marked mask, one reshape per bit, on a copy."""
    table = table.copy()
    for b in range(num_bits):
        t3 = table.reshape(-1, 2, 1 << b)
        t3[:, 0, :] |= t3[:, 1, :]
    return table


def minimal_uncovered_per_bit(covered: np.ndarray, num_bits: int) -> np.ndarray:
    """Uncovered masks whose one-bit deletions are all covered, one reshape per bit."""
    ok = ~covered
    for b in range(num_bits):
        ok3 = ok.reshape(-1, 2, 1 << b)
        ok3[:, 1, :] &= covered.reshape(-1, 2, 1 << b)[:, 0, :]
    return ok


# -- bitsets built one bit at a time -------------------------------------------------


def bit_indices_per_bit(mask: int) -> list[int]:
    """Set bits, lowest first, clearing the lowest set bit each time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_per_bit(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def amplitude_classes_per_bit(space: HistorySpace):
    """(final, canonical value, members, count) per class in order of the
    smallest member, keyed by every history's own canonical value and
    built with one OR per member."""
    buckets: dict[tuple, list[int]] = {}
    for i, (sites, amp) in enumerate(zip(space.histories, space.amps)):
        buckets.setdefault((sites[-1], amp.canonical()), []).append(i)
    ordered = sorted(buckets.items(), key=lambda item: item[1][0])
    return [(f, value, mask_per_bit(ids), len(ids)) for (f, value), ids in ordered]


# -- output writers ----------------------------------------------------------------


def text_lines(obj, indent: int = 0) -> list[str]:
    """The text format of a `json_ready` value: a dict's entries as `key:
    value`, a list's items as `- value`, a non-flat container below its
    own line."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(v)}")
    else:
        lines.append(f"{pad}{_inline(obj)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _inline(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(map(str, v)) + "]"
    return str(v)


def csv_column(cells: list) -> list:
    """One csv column: the cells as `json_ready` renders them, sequences
    joined by spaces."""
    flat = cells
    if {*map(type, cells)} <= {list, tuple}:
        flat = list(itertools.chain.from_iterable(cells))
    # all strings, or all plain ints within 2^53: json_ready leaves them as they are
    kinds = {*map(type, flat)}
    plain = kinds <= {str} or (kinds <= {int} and all(abs(x) <= 1 << 53 for x in flat))
    if not plain:
        cells = json_ready(cells)
    return [" ".join(map(str, v)) if isinstance(v, (list, tuple)) else v for v in cells]
