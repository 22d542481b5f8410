"""Independent exact checker for the frontier workload.

Recomputes, without importing qhopper, the number of zero-sum subsets
(precluded events, the empty set included) and the number of primitive
coevents of a fixed-final history space.

- Amplitudes are integer coefficient vectors over x^m - 1, reduced to
  canonical coordinates modulo sympy's cyclotomic polynomial Phi_m.
- Histories are grouped into classes by those coordinates.
- The count-vector box is walked in vectorised int64 chunks; a box point
  k is zero-sum when sum_i k_i * v_i == 0.
- Primitive coevents come from the minimal count vectors that no
  zero-sum vector dominates, found by array closures over the box.

Every count is a sum of products of binomials, done in Python integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy

MAX_BOX = 1 << 25
CHUNK = 1 << 18
INT64_LIMIT = 1 << 62


def phase_order(n: int) -> int:
    return n if n % 2 else 2 * n


def state_terms(n: int, state: str) -> list[list[tuple[int, int]]]:
    """Per-site amplitude as (exponent of the n-th root, coefficient) terms."""
    if state == "ground":
        return [[(0, 1)] for _ in range(n)]
    if state == "plus":
        return [[(j, 1)] for j in range(n)]
    if state == "minus":
        return [[(-j % n, 1)] for j in range(n)]
    if state == "standing":
        return [[(j, 1), (-j % n, 1)] for j in range(n)]
    if state.startswith("custom:"):
        out = []
        for term in state[len("custom:"):].split(","):
            if ":" in term:
                e, c = term.split(":")
                out.append([(int(e) % n, int(c))])
            else:
                out.append([(0, int(term))])
        if len(out) != n:
            raise ValueError(f"custom state needs {n} terms, got {len(out)}")
        return out
    raise ValueError(f"unknown state {state!r}")


@lru_cache(maxsize=None)
def _phi(m: int) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.cyclotomic_poly(m, x), x)


def canonical(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of sum_k coeffs[k] x^k modulo Phi_m, m = len(coeffs)."""
    m = len(coeffs)
    phi = _phi(m)
    poly = sympy.Poly(list(reversed(coeffs)), phi.gen)
    rem = poly.rem(phi).all_coeffs()[::-1]
    deg = phi.degree()
    out = [int(c) for c in rem] + [0] * (deg - len(rem))
    return tuple(out[:deg])


@dataclass(frozen=True)
class Classes:
    counts: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    @property
    def box(self) -> int:
        return math.prod(c + 1 for c in self.counts)


def classes(n: int, steps: int, state: str, final: int = 0) -> Classes:
    """Amplitude classes of the histories ending at `final`."""
    m = phase_order(n)
    step = m // n
    starts = []
    for terms in state_terms(n, state):
        vec = [0] * m
        for e, c in terms:
            vec[e * step % m] += c
        starts.append(vec)
    grid = np.indices((n,) * steps).reshape(steps, -1)
    sites = np.vstack([grid, np.full((1, grid.shape[1]), final)])
    phase = (np.diff(sites, axis=0) ** 2).sum(axis=0) % m
    groups: dict[tuple[int, ...], int] = {}
    keyed: dict[tuple[int, int], tuple[int, ...]] = {}
    for x0, e in zip(sites[0].tolist(), phase.tolist()):
        key = keyed.get((x0, e))
        if key is None:
            rotated = tuple(starts[x0][(k - e) % m] for k in range(m))
            key = keyed[(x0, e)] = canonical(rotated)
        groups[key] = groups.get(key, 0) + 1
    keys = sorted(groups)
    return Classes(tuple(groups[k] for k in keys), tuple(keys))


def zero_mask(cl: Classes) -> np.ndarray:
    """Boolean array over the count-vector box, True where sum k_i v_i == 0."""
    if cl.box > MAX_BOX:
        raise ValueError(f"box of {cl.box} points exceeds the checker's {MAX_BOX}")
    vecs = np.asarray(cl.vectors, dtype=np.int64)
    bound = sum(c * int(np.abs(v).max(initial=0)) for c, v in zip(cl.counts, vecs))
    if bound >= INT64_LIMIT or cl.box >= INT64_LIMIT:
        raise OverflowError("count-vector sums may overflow int64")
    radix = np.asarray([c + 1 for c in cl.counts], dtype=np.int64)
    mask = np.empty(cl.box, dtype=bool)
    for lo in range(0, cl.box, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, cl.box), dtype=np.int64)
        digits = np.empty((idx.size, radix.size), dtype=np.int64)
        for i in range(radix.size - 1, -1, -1):  # row-major: last class fastest
            idx, digits[:, i] = np.divmod(idx, radix[i])
        mask[lo : lo + digits.shape[0]] = ~np.any(digits @ vecs, axis=1)
    return mask.reshape(tuple(radix.tolist()))


def _weighted(cl: Classes, points: np.ndarray) -> int:
    total = 0
    for k in np.argwhere(points).tolist():
        total += math.prod(math.comb(c, ki) for c, ki in zip(cl.counts, k))
    return total


def _down_closure(mask: np.ndarray) -> np.ndarray:
    """Points dominated by some marked point (suffix OR along every axis)."""
    out = mask
    for axis in range(mask.ndim):
        flipped = np.flip(out, axis)
        out = np.flip(np.logical_or.accumulate(flipped, axis=axis), axis)
    return out


def _after_deletion(arr: np.ndarray, axis: int) -> np.ndarray:
    """out[k] = arr[k - e_axis]; True where k has nothing to delete on that axis."""
    out = np.ones_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    src[axis], dst[axis] = slice(None, -1), slice(1, None)
    out[tuple(dst)] = arr[tuple(src)]
    return out


@dataclass(frozen=True)
class Verdict:
    box: int
    zero_vectors: int
    precluded: int
    primitive: int


def check(n: int, steps: int, state: str, final: int = 0) -> Verdict:
    """Precluded and primitive counts of one fixed-final space."""
    cl = classes(n, steps, state, final)
    zero = zero_mask(cl)
    down = _down_closure(zero)
    minimal = ~down
    for axis in range(zero.ndim):
        minimal &= _after_deletion(down, axis)
    return Verdict(cl.box, int(zero.sum()), _weighted(cl, zero), _weighted(cl, minimal))
