"""The n-site hopper: lattice geometry, hop amplitudes, and initial states.

The single-step amplitude from site x to site x' is the root of unity
exp(2*pi*i*(x-x')^2 / n) for odd n and exp(2*pi*i*(x-x')^2 / 2n) for
even n.  The usual 1/sqrt(n) normalization is dropped throughout: every
history at a fixed number of steps shares the same power of it, so it
can never affect whether an amplitude sum vanishes.
"""
from __future__ import annotations

import math

from .cyclotomic import CycInt, root
from .errors import InvalidSiteError, UnknownStateError

__all__ = [
    "LatticeSpec",
    "InitialState",
    "STATE_LABELS",
    "hop_amplitude",
    "transfer_matrix",
    "check_unitarity",
    "initial_state",
    "is_transfer_eigenvector",
]

STATE_LABELS = ("ground", "plus", "minus", "standing")

_set = object.__setattr__  # how __init__ fills the fields of a Frozen record


class Frozen:
    """Base of the package's records: assigning or deleting an attribute
    raises AttributeError, and repr lists the fields named in `_fields`.

    A subclass's __init__ sets its fields with `_set`, or, when it has a
    __dict__, with `vars(self).update`; `functools.cached_property` writes
    that __dict__ directly, so it still caches.  A record compares by
    identity unless it defines __eq__, as `FrozenValue` does.  A plain
    class costs little to create when its module is imported: no method
    is generated and exec'd.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])


class FrozenValue(Frozen):
    """A Frozen record that compares and hashes by `_values()`, its fields'
    values, equal only to a record of the same class; it pickles and copies
    through its constructor, which validates again.  Each subclass spells
    out `_values`, several times faster than the generic loop."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class LatticeSpec(FrozenValue):
    """A cyclic lattice of n sites walked for a fixed number of time steps,
    with its phase row built once: a hop by d = 0..n-1 sites carries the
    root z^hop_exponents[d], z of order `phase_order` (n if odd, 2n if
    even) and hop_exponents[d] = d^2 mod phase_order.  Only d mod n
    matters, so a negative d may index the tuple from its end.

    Compares, hashes, pickles and prints by (n, steps) alone.
    """

    __slots__ = ("n", "steps", "phase_order", "hop_exponents")
    _fields = ("n", "steps")
    n: int
    steps: int
    phase_order: int
    hop_exponents: tuple[int, ...]

    def __init__(self, n, steps):
        if n < 2:
            raise ValueError(f"need at least 2 sites, got {n}")
        if steps < 1:
            raise ValueError(f"need at least 1 step, got {steps}")
        m = n if n % 2 else 2 * n
        _set(self, "n", n)
        _set(self, "steps", steps)
        _set(self, "phase_order", m)
        _set(self, "hop_exponents", tuple([d * d % m for d in range(n)]))

    def _values(self) -> tuple:
        return self.n, self.steps

    def check_site(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise InvalidSiteError(f"site {x} outside 0..{self.n - 1}")


class InitialState(FrozenValue):
    """Per-site starting amplitudes; overall scale is irrelevant to preclusion.

    Compares by value; CycInt values have no hash, so neither has a state.
    """

    __slots__ = _fields = ("label", "amps")
    label: str
    amps: tuple[CycInt, ...]

    def __init__(self, label, amps):
        if all(a.is_zero() for a in amps):
            raise ValueError("initial state cannot be identically zero")
        _set(self, "label", label)
        _set(self, "amps", amps)

    def _values(self) -> tuple:
        return self.label, self.amps


def hop_amplitude(spec: LatticeSpec, x: int, x2: int) -> CycInt:
    """Unnormalized single-step amplitude from x to x2."""
    spec.check_site(x)
    spec.check_site(x2)
    return root(spec.phase_order, spec.hop_exponents[(x2 - x) % spec.n])


def transfer_matrix(spec: LatticeSpec) -> tuple[tuple[CycInt, ...], ...]:
    """Matrix U with U[x2][x] the amplitude to hop from x to x2 (unnormalized):
    the circulant U[x2][x] = row[(x2 - x) % n] of the lattice's phase row."""
    n = spec.n
    row = [root(spec.phase_order, e) for e in spec.hop_exponents]
    return tuple(tuple([row[x2 - x] for x in range(n)]) for x2 in range(n))


def check_unitarity(spec: LatticeSpec) -> bool:
    """True iff U * U^dagger equals n * I exactly."""
    return _is_unitary(spec, transfer_matrix(spec))


def _is_unitary(spec: LatticeSpec, u) -> bool:
    """True iff the matrix u of `spec`'s phase ring is circulant and has
    u * u^dagger = n * I.  For a circulant, entry (r, c) of u * u^dagger is
    the first row's autocorrelation sum_y u[0][y] * conj(u[0][(y + k) % n])
    at k = r - c mod n; each of the n sums is accumulated as a plain
    coefficient list over the phase ring and decided with one zero test."""
    n, m = spec.n, spec.phase_order
    first = tuple(u[0])
    # row r must be first[(x - r) % n]; tuples compare entries by identity first
    if any(tuple(u[r]) != first[n - r :] + first[: n - r] for r in range(1, n)):
        return False
    terms = [[(k, a) for k, a in enumerate(x.coeffs) if a] for x in first]
    conj = [[(-k % m, a) for k, a in entry] for entry in terms]
    for k in range(n):
        acc = [0] * m
        acc[0] = 0 if k else -n
        for y in range(n):
            right = conj[(y + k) % n]
            for i, a in terms[y]:
                for j, b in right:
                    acc[(i + j) % m] += a * b
        if not CycInt(m, acc).is_zero():
            return False
    return True


def initial_state(
    spec: LatticeSpec, label: str, amps: tuple[CycInt, ...] | None = None
) -> InitialState:
    """Build one of the named initial states, or wrap custom amplitudes.

    ground   -> (1, 1, ..., 1)
    plus     -> (1, w, w^2, ...)    with w = exp(2*pi*i/n)
    minus    -> the complex conjugate of plus
    standing -> entrywise sum of plus and minus
    custom   -> amplitudes supplied by the caller, one per site
    """
    n, m = spec.n, spec.phase_order
    step = m // n  # w = z^step in the phase ring
    if label == "custom":
        if amps is None:
            raise UnknownStateError("custom state needs explicit amplitudes")
        if len(amps) != n:
            raise ValueError(f"expected {n} amplitudes, got {len(amps)}")
        return InitialState("custom", tuple(amps))
    if amps is not None:
        raise ValueError("amplitudes are only accepted with label 'custom'")
    if label == "ground":
        vec = tuple(CycInt.one(m) for _ in range(n))
    elif label == "plus":
        vec = tuple(root(m, j * step) for j in range(n))
    elif label == "minus":
        vec = tuple(root(m, -j * step) for j in range(n))
    elif label == "standing":
        vec = tuple(root(m, j * step) + root(m, -j * step) for j in range(n))
    else:
        raise UnknownStateError(f"unknown state label {label!r}")
    return InitialState(label, vec)


def is_transfer_eigenvector(spec: LatticeSpec, state: InitialState) -> bool:
    """True iff U * amps is a nonzero scalar multiple of amps.

    Decided by exact cross-ratio equalities amps[i]*(U amps)[j] ==
    amps[j]*(U amps)[i], which keeps everything inside the integer ring
    (no division by amplitudes).
    """
    n = spec.n
    m = math.lcm(spec.phase_order, *(a.order for a in state.amps))
    amps = tuple(a.embed(m) for a in state.amps)
    image = [
        sum((x.embed(m) * a for x, a in zip(row, amps)), CycInt.zero(m))
        for row in transfer_matrix(spec)
    ]
    if all(v.is_zero() for v in image):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if not (amps[i] * image[j] - amps[j] * image[i]).is_zero():
                return False
    return True
