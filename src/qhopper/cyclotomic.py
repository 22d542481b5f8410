"""Exact arithmetic over sums of m-th roots of unity.

A value is stored as an integer coefficient vector of length m over the
basis 1, z, z^2, ..., z^(m-1) where z = exp(2*pi*i/m).  Ring operations
reduce indices modulo m (the relation z^m = 1), which keeps addition and
multiplication cheap.  Whether a value *is zero* cannot be read off the
raw vector, because the basis is linearly dependent (1 + z + z^2 = 0 for
m = 3, for instance).  The sound test reduces the coefficient polynomial
modulo the m-th cyclotomic polynomial: the value is zero exactly when
the remainder vanishes.  Every preclusion decision in this package
bottoms out in that test, so no floating point is involved anywhere.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Iterable

from .errors import EmbeddingError, InvalidOrderError, OrderMismatchError

__all__ = ["CycInt", "root", "cyclotomic_polynomial"]


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of the cyclotomic polynomial Phi_m, constant term first.

    Computed by exact division of x^m - 1 by the product of Phi_d over
    the proper divisors d of m.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if order < 1:
        raise InvalidOrderError(f"order must be >= 1, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]  # x^m - 1
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_div_exact(num: list[int], den: Iterable[int]) -> list[int]:
    """Divide integer polynomials known to divide exactly; den must be monic."""
    den = list(den)
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@functools.lru_cache(maxsize=1 << 16)
def _phi_remainder(order: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of the coefficient polynomial modulo Phi_order.

    The remainder is the canonical representative of the value in the
    basis 1, z, ..., z^(phi(m)-1); two values of equal order are equal
    iff their remainders coincide.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        for j, pj in enumerate(phi):
            work[i - deg + j] -= c * pj
    return tuple(work[:deg])


class CycInt:
    """An element of Z[z] with z a primitive `order`-th root of unity.

    Instances are immutable; all operations return new values.  The
    coefficients must be integers (anything `operator.index` accepts); a
    float or a string raises TypeError rather than being truncated.  Ring
    arithmetic requires both operands to carry the same order (embed
    first via :meth:`embed`), while equality silently embeds into the
    least common multiple order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int]):
        if order < 1:
            raise InvalidOrderError(f"order must be >= 1, got {order}")
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    def __reduce__(self):
        return (CycInt, (self.order, self.coeffs))

    def __copy__(self) -> CycInt:
        return self

    def __deepcopy__(self, memo) -> CycInt:
        return self

    @classmethod
    def zero(cls, order: int = 1) -> CycInt:
        return cls(order, (0,) * order)

    @classmethod
    def one(cls, order: int = 1) -> CycInt:
        return cls.from_int(1, order)

    @classmethod
    def from_int(cls, value: int, order: int = 1) -> CycInt:
        coeffs = [0] * order
        coeffs[0] = value
        return cls(order, coeffs)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt.from_int(other, self.order)
        if not isinstance(other, CycInt):
            raise TypeError(f"cannot combine CycInt with {type(other).__name__}")
        if other.order != self.order:
            raise OrderMismatchError(
                f"orders differ ({self.order} vs {other.order}); embed first"
            )
        return other

    def __add__(self, other: CycInt | int) -> CycInt:
        other = self._coerce(other)
        return CycInt(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: CycInt | int) -> CycInt:
        other = self._coerce(other)
        return CycInt(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other: CycInt | int) -> CycInt:
        return (-self) + other

    def __neg__(self) -> CycInt:
        return CycInt(self.order, (-c for c in self.coeffs))

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt(self.order, (c * other for c in self.coeffs))
        other = self._coerce(other)
        m = self.order
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    k = i + j
                    out[k - m if k >= m else k] += a * b
        return CycInt(m, out)

    __rmul__ = __mul__

    def conj(self) -> CycInt:
        """Complex conjugate: the coefficient of z^k moves to z^(m-k)."""
        m = self.order
        out = [0] * m
        for k, c in enumerate(self.coeffs):
            out[(m - k) % m] = c
        return CycInt(m, out)

    def embed(self, order: int) -> CycInt:
        """Re-express the same value using a root of the given (multiple) order."""
        if order % self.order != 0:
            raise EmbeddingError(f"{self.order} does not divide {order}")
        step = order // self.order
        out = [0] * order
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return CycInt(order, out)

    # -- decisions -------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff the value is exactly zero (decided modulo Phi_m)."""
        if not any(self.coeffs):
            return True
        return not any(_phi_remainder(self.order, self.coeffs))

    def canonical(self) -> tuple[int, ...]:
        """Canonical coefficient tuple; equal same-order values agree here."""
        return _phi_remainder(self.order, self.coeffs)

    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.order, self.canonical())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.order == other.order:
            return (self - other).is_zero()
        m = math.lcm(self.order, other.order)
        return (self.embed(m) - other.embed(m)).is_zero()

    __hash__ = None  # semantic equality spans orders; use canonical_key() to group

    # -- inspection -------------------------------------------------------

    def complex_value(self) -> complex:
        """Floating-point image of the value.

        Cross-check use only: no decision in this package depends on it.
        """
        m = self.order
        return sum(c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(self.coeffs) if c)

    def __repr__(self) -> str:
        return f"CycInt({self.order}, {self.coeffs})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                base = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                terms.append(("-" if c < 0 else "") + mag + base)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def root(order: int, k: int) -> CycInt:
    """The root of unity z^k with z = exp(2*pi*i/order); k wraps modulo order.

    >>> root(3, 4) == root(3, 1)
    True
    >>> root(12, 9) == -root(12, 3)
    True
    """
    if order < 1:
        raise InvalidOrderError(f"order must be >= 1, got {order}")
    coeffs = [0] * order
    coeffs[k % order] = 1
    return CycInt(order, coeffs)
