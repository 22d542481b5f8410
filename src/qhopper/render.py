"""Stable text labels, JSON-friendly conversion and the output writers for exact values.

`json_ready` turns exact values into plain JSON types.  `write` renders
a command's figures as json, text or csv, each in one walk that converts
as it goes: a flat list of plain ints, such as a support's index tuple,
is joined in one step, and a listing of such rows is written row by row
through `_row_cell_str`, which all three writers share.  `dumps_canonical`
is the json writer: what json.dumps would write of `json_ready`'s result.
"""
from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from collections.abc import Iterable, Sequence
from itertools import chain
from json.encoder import encode_basestring
from typing import Callable

from .cyclotomic import CycInt
from .histories import Sites

__all__ = [
    "history_str",
    "value_label",
    "json_ready",
    "dumps_canonical",
    "write",
]

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
    """Deterministic compact label for an exact amplitude value: the one text
    form of a value, which every output prints (`str()` of a CycInt is its repr).

    >>> from qhopper.cyclotomic import root
    >>> value_label(root(3, 2)), value_label(root(4, 3)), value_label(CycInt.zero(3))
    ('ω̄', '-i', '0')
    """
    terms = [(k, c) for k, c in enumerate(value.coeffs) if c]
    if not terms:
        return "0"
    parts = [_term_label(c, k, value.order) for k, c in terms]
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _plain_cells(cells: list) -> bool:
    """True iff `json_ready` returns each of the cells as it is: all are
    strings, or all are plain ints within JSON_INT_LIMIT.  A bool, an int
    subclass or a larger int fails, so one type check on a whole column or
    listing can stand for a walk over every cell."""
    kinds = {*map(type, cells)}
    return kinds <= {str} or (
        kinds <= {int}
        and -JSON_INT_LIMIT <= min(cells, default=0)
        and max(cells, default=0) <= JSON_INT_LIMIT
    )


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
        # rows of plain cells, such as a support listing, are checked as a whole
        if {*map(type, obj)} <= {list, tuple} and _plain_cells(list(chain.from_iterable(obj))):
            return [list(row) for row in obj]
        return [json_ready(v) for v in obj]
    if isinstance(obj, float):
        raise TypeError("floating-point values have no place in exact reports")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_keys(d: dict) -> dict:
    """`d` with its keys as `json_ready` writes them (str, int and tuple keys
    become strings) and its values as they are.  When two keys meet, it is
    `json_ready(d)`, so that the value the meeting drops is still converted,
    and refused, as `json_ready` would."""
    keyed = {_key(k): v for k, v in d.items()}
    return keyed if len(keyed) == len(d) else json_ready(d)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, int):
        return str(k)
    if isinstance(k, tuple):
        return "|".join(str(x) for x in k)
    raise TypeError(f"cannot use {type(k).__name__} as a JSON key")


def _row_cell_str(rows) -> Callable[[int], str] | None:
    """How to write the cells of `rows` when it is a listing of rows of
    plain ints, such as a support listing: every row a list or tuple, and
    every cell an int that `json_ready` leaves as it is.  None otherwise.

    Cells that index a table as long as the listing (non-negative and
    below its cell count, as history indices are) read their strings from
    one table; other plain ints are written by `int.__repr__`.
    """
    if not {*map(type, rows)} <= {list, tuple}:
        return None
    cells = list(chain.from_iterable(rows))
    if not {*map(type, cells)} <= {int}:
        return None
    low, high = min(cells, default=0), max(cells, default=0)
    if low < -JSON_INT_LIMIT or high > JSON_INT_LIMIT:
        return None
    if low >= 0 and high < len(cells):
        return list(map(str, range(high + 1))).__getitem__
    return int.__repr__


def _scalar(obj) -> str:
    """A value that is not a list, tuple or dict, as JSON."""
    return json.dumps(json_ready(obj), ensure_ascii=False)


def _encode(obj, pad: str) -> str:
    """`obj` as json.dumps(json_ready(obj), indent=2, ensure_ascii=False)
    writes it, nested lines indented past `pad`: one walk that converts
    each value as `json_ready` does while it writes."""
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is int and -JSON_INT_LIMIT <= obj <= JSON_INT_LIMIT:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            [f"{encode_basestring(k)}: {_encode(v, inner)}" for k, v in _json_keys(obj).items()]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if not isinstance(obj, (list, tuple)):
        return _scalar(obj)
    if not obj:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if {*map(type, obj)} == {int} and -JSON_INT_LIMIT <= min(obj) and max(obj) <= JSON_INT_LIMIT:
        return f"[\n{inner}{sep.join(map(int.__repr__, obj))}\n{pad}]"
    cell = _row_cell_str(obj)
    if cell is None:
        body = sep.join([_encode(v, inner) for v in obj])
    else:
        row_inner = inner + "  "
        row_sep = ",\n" + row_inner
        body = sep.join(
            [
                f"[\n{row_inner}{row_sep.join(map(cell, row))}\n{inner}]" if row else "[]"
                for row in obj
            ]
        )
    return f"[\n{inner}{body}\n{pad}]"


def dumps_canonical(obj) -> str:
    """Byte-stable JSON rendering (UTF-8, two-space indent, trailing newline).

    The same bytes as json.dumps(json_ready(obj), indent=2,
    ensure_ascii=False) + "\n", written in one walk: json.dumps with an
    indent always takes the pure-Python encoder, while strings here go
    through the C-accelerated `encode_basestring`, flat int lists are
    joined in one step and a listing of rows of plain ints is written row
    by row through `_row_cell_str`.
    """
    return _encode(obj, "") + "\n"


_CONTAINERS = (dict, list, tuple)


def _text_lines(obj, indent: int = 0) -> list[str]:
    """`obj` as indented text lines: a dict's entries as `key: value`, a
    list's items as `- value`, an entry that holds containers on lines of
    its own below it.  One walk that converts each value as `json_ready`
    does while it writes; a listing of rows of plain ints is written one
    `- [a, b, ...]` line per row."""
    pad = "  " * indent
    if isinstance(obj, dict):
        entries = [(f"{pad}{k}:", v) for k, v in _json_keys(obj).items()]
    elif isinstance(obj, (list, tuple)):
        cell = _row_cell_str(obj)
        if cell is not None:
            return [f"{pad}- [{', '.join(map(cell, row))}]" for row in obj]
        entries = [(f"{pad}-", v) for v in obj]
    else:
        return [pad + _text_cell(obj)]
    lines: list[str] = []
    for head, v in entries:
        if isinstance(v, _CONTAINERS) and v and (
            isinstance(v, dict) or any(isinstance(x, _CONTAINERS) for x in v)
        ):
            lines.append(head)
            lines.extend(_text_lines(v, indent + 1))
        elif isinstance(v, (list, tuple)):
            cells = v if _plain_cells(v) else map(_text_cell, v)
            lines.append(f"{head} [{', '.join(map(str, cells))}]")
        else:
            lines.append(f"{head} {_text_cell(v)}")
    return lines


def _text_cell(v) -> str:
    """A value that holds no containers (or an empty dict) as text."""
    return v if type(v) is str else str(json_ready(v))


def _flatten(d: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_flatten(v, key + "."))
        elif isinstance(v, list):
            rows.append((key, " ".join(str(x) for x in v)))
        else:
            rows.append((key, str(v)))
    return rows


def _csv_rows(rows: Iterable[Sequence]) -> Iterable[Sequence]:
    """Rows of cells as csv cells: each cell as `json_ready` renders it, a
    sequence joined by spaces.  Types are checked once per column, so a
    column of plain cells is written as it is, and a column of rows of
    plain ints is joined through `_row_cell_str`; any other column takes
    `json_ready` cell by cell."""
    columns = []
    for column in zip(*rows):
        if not _plain_cells(column):
            cell = _row_cell_str(column)
            if cell is not None:
                column = [" ".join(map(cell, v)) for v in column]
            else:
                column = [
                    " ".join(map(str, v)) if isinstance(v, list) else v
                    for v in json_ready(column)
                ]
        columns.append(column)
    return zip(*columns)


def write(
    fmt: str, data: dict, table: tuple[Sequence[str], Iterable[Sequence]] | None = None
) -> str:
    """`data` in the format `fmt` ("json", "text" or "csv"); csv writes
    `table` instead when given: its header fields, then its rows, each a
    sequence of cells in field order (the header alone when there are no
    rows), and otherwise `data` as flattened key/value rows."""
    if fmt == "json":
        return dumps_canonical(data)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if table is not None:
            fields, rows = table
            writer.writerow(fields)
            writer.writerows(_csv_rows(rows))
        else:
            writer.writerow(["key", "value"])
            writer.writerows(_flatten(json_ready(data)))
        return buf.getvalue()
    return "\n".join(_text_lines(data)) + "\n"
