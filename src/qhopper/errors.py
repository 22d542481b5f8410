"""Exception types shared across the engine, and every size limit it enforces.

`LIMITS` is the one table of size guards: histories per space, the
kernel walk's free box and antichain, expanded supports, subsets walked
by each brute force, and lattice sites for the unitarity check.  Keyword
parameters such as `max_histories=` and `max_subsets=` take their
defaults from it, and nothing else sets a limit.  Every refusal goes
through `check_size`, so each `InfeasibleSizeError` reads

    <subject with the requested size> exceeds the <guard> guard of <limit>; <remedy>

A size past 2^64 is given by its bit length b, as 2^(b-1)..2^b.
"""
from __future__ import annotations

from typing import NamedTuple


class HopperError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(HopperError, ValueError):
    """A cyclotomic order was zero or negative."""


class OrderMismatchError(HopperError, ValueError):
    """Ring arithmetic was attempted between values of different orders."""


class EmbeddingError(HopperError, ValueError):
    """A value was embedded into an order that its own order does not divide."""


class InvalidSiteError(HopperError, ValueError):
    """A lattice site outside 0..n-1 was referenced."""


class UnknownStateError(HopperError, ValueError):
    """An initial-state label is not one of the recognized names."""


class SpaceMismatchError(HopperError, ValueError):
    """Two objects built over different history spaces were combined."""


class WrongSpaceError(HopperError, ValueError):
    """An operation requires a fixed-final (or unrestricted) space and got the other kind."""


class InfeasibleSizeError(HopperError, RuntimeError):
    """An enumeration would exceed its configured size guard."""


class Guard(NamedTuple):
    """One size limit: its name in messages, its default, how to change it,
    and the ceiling no passed limit goes past (None for no ceiling)."""

    name: str
    default: int
    remedy: str
    ceiling: int | None = None


class Limits(NamedTuple):
    """Every size guard; `LIMITS` is the only instance (a named tuple:
    immutable, and cheap to create when the module is imported)."""

    max_histories: Guard = Guard(
        "max_histories", 1 << 24, "raise it with --max-histories or max_histories="
    )
    max_vectors: Guard = Guard("max_vectors", 1 << 20, "raise it with max_vectors=")
    max_supports: Guard = Guard("max_supports", 1 << 20, "raise it with max_supports=")
    max_subsets: Guard = Guard(
        "max_subsets", 1 << 20, "set it with max_subsets=, up to 2^27", 1 << 27
    )
    model_sites: Guard = Guard("unitarity-check", 32, "fixed: its cost grows about n^2")


LIMITS = Limits()


def _magnitude(x: int) -> str:
    b = x.bit_length()
    if b <= 64:
        return str(x)
    return f"2^{b - 1}" if x == 1 << (b - 1) else f"2^{b - 1}..2^{b}"


def check_size(subject: str, size: int, limit: int, guard: Guard) -> None:
    """Refuse `size` over `limit`, held to the guard's ceiling; `subject` has
    `{}` where the size goes."""
    if guard.ceiling is not None:
        limit = min(limit, guard.ceiling)
    if size > limit:
        raise InfeasibleSizeError(
            f"{subject.format(_magnitude(size))} exceeds the {guard.name} guard "
            f"of {_magnitude(limit)}; {guard.remedy}"
        )
