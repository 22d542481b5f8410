"""Stable text labels and JSON-friendly conversion for exact values."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from decimal import Decimal
from fractions import Fraction

from .cyclotomic import CycInt
from .histories import Sites

__all__ = ["history_str", "value_label", "json_ready", "dumps_canonical"]

JSON_INT_LIMIT = 1 << 53  # larger integers go out as decimal strings


def history_str(sites: Sites) -> str:
    """Serialize a history start-to-end, e.g. '0-1-2-0'."""
    return "-".join(str(s) for s in sites)


def _term_label(coeff: int, k: int, order: int) -> str:
    """Label for coeff * z^k, folding -1 and -i into the coefficient sign."""
    if k % order == 0:
        return str(coeff)
    g = math.gcd(k % order, order)
    kr, mr = (k % order) // g, order // g
    if mr == 2:
        return str(-coeff)
    if mr == 4 and kr == 3:
        coeff, kr = -coeff, 1
    if mr == 3:
        base = "ω" if kr == 1 else "ω̄"
    elif mr == 4:
        base = "i"
    else:
        base = f"ζ{mr}" if kr == 1 else f"ζ{mr}^{kr}"
    if coeff == 1:
        return base
    if coeff == -1:
        return "-" + base
    return f"{coeff}{base}"


def value_label(value: CycInt) -> str:
    """Deterministic compact label for an exact amplitude value."""
    terms = [(k, c) for k, c in enumerate(value.coeffs) if c]
    if not terms:
        return "0"
    parts = [_term_label(c, k, value.order) for k, c in terms]
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def json_ready(obj):
    """Recursively convert to plain JSON types with exactness preserved.

    Integers beyond 2**53 and all rationals become decimal strings so
    consumers without big integers cannot silently round them; Decimal
    prints any length, where str(int) stops at sys.get_int_max_str_digits().
    """
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(Decimal(obj)) if abs(obj) > JSON_INT_LIMIT else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CycInt):
        return value_label(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {_key(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [json_ready(v) for v in sorted(obj)]
    if is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(asdict(obj))
    if isinstance(obj, float):
        raise TypeError("floating-point values have no place in exact reports")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, int):
        return str(k)
    if isinstance(k, tuple):
        return "|".join(str(x) for x in k)
    raise TypeError(f"cannot use {type(k).__name__} as a JSON key")


def dumps_canonical(obj) -> str:
    """Byte-stable JSON rendering (UTF-8, two-space indent, trailing newline)."""
    return json.dumps(json_ready(obj), indent=2, ensure_ascii=False) + "\n"
