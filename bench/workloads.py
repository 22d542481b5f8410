"""Query lists for the three workloads, generated from the benchmark seed.

A query is a plain dict handed to `worker.py` in a fresh interpreter:

- kind "cli": `qhopper <argv>`, output captured;
- kind "frontier": `qhopper preclusion <argv>` then `count_primitive` on
  the same space, in one worker;
- kind "walk": `count_precluded_bruteforce` on one space and thread count;
- kind "primitive_bruteforce": `enumerate_primitive_bruteforce` on one space.

Every query also carries `key` (what its expected answer is filed
under), `reach` (a point the seed refuses) and `budget_s`.
"""
from __future__ import annotations

import random

import checker

STATES = ("ground", "plus", "minus", "standing")
FORMATS = ("text", "json", "csv")

DEFAULT_BUDGET_S = 120.0
REACH_BUDGET_S = 20.0


def _query(kind: str, argv: list[str], *, key: str | None = None, **extra) -> dict:
    q = {"kind": kind, "argv": argv, "key": key or " ".join(argv), "reach": False,
         "budget_s": DEFAULT_BUDGET_S}
    q.update(extra)
    return q


def strip_threads(argv: list[str]) -> list[str]:
    """The same query at the default thread count (output must not differ)."""
    out = list(argv)
    if "--threads" in out:
        i = out.index("--threads")
        del out[i : i + 2]
    return out


# -- paper ----------------------------------------------------------------------

PAPER_REPORTS = (
    ["report", "--format", "json"],
    ["report", "--format", "json", "--state", "standing"],
    ["report", "--format", "json", "--threads", "2"],
)
PAPER_COMMANDS = ("classify", "primitives", "preclusion", "histories")
STANDING_FINAL = "1"
PAPER_COMPARES = (
    (3, "ground", "plus"),
    (3, "plus", "minus"),
    (3, "minus", "standing"),
    (2, "ground", "plus"),
    (2, "plus", "standing"),
)


def _finals(command: str) -> tuple[str, ...]:
    return ("0", "1", "2", "all") if command in ("preclusion", "histories") else ("0", "1", "2")


def _paper_argv(command: str, steps: int, state: str, final: str, fmt: str) -> list[str]:
    argv = [command, "--sites", "3", "--steps", str(steps), "--state", state,
            "--final", final, "--format", fmt]
    if command == "primitives":
        argv.append("--emit-supports")
    return argv


def paper_universe() -> list[list[str]]:
    """Every argv the paper workload can draw, at the default thread count."""
    out = [list(r) for r in PAPER_REPORTS if "--threads" not in r]
    for command in PAPER_COMMANDS:
        for steps in (2, 3):
            for state in STATES:
                for final in _finals(command):
                    for fmt in FORMATS:
                        out.append(_paper_argv(command, steps, state, final, fmt))
    for steps, a, b in PAPER_COMPARES:
        for final in ("0", "1", "2"):
            for fmt in FORMATS:
                out.append(["compare", "--sites", "3", "--steps", str(steps), "--state", a,
                            "--with", b, "--final", final, "--format", fmt])
    return out


def paper_queries(rng: random.Random) -> list[dict]:
    """One pass: the reports, every command for every state at T = 3, one
    command per state at T = 2, and the compares.

    The seed picks final sites and the order; everything that changes a
    query's cost is fixed, so every seed does the same work (the median
    query sits among cheap queries whose cost depends on the format and
    on `--final all`).  Formats and thread counts rotate over the
    commands; minus runs `preclusion` and `histories` over all finals.
    The standing wave is not rotation symmetric (its T = 3 queries cost
    up to three times more at final 1 or 2 than at 0), so its T = 3
    queries keep final 1.
    """
    queries = [_query("cli", list(r), key=" ".join(strip_threads(list(r))))
               for r in PAPER_REPORTS]
    for i, state in enumerate(STATES):
        for j, command in enumerate(PAPER_COMMANDS):
            if state == "standing":
                final = STANDING_FINAL
            elif state == "minus" and "all" in _finals(command):
                final = "all"
            else:
                final = rng.choice(("0", "1", "2"))
            argv = _paper_argv(command, 3, state, final, FORMATS[(i + j) % len(FORMATS)])
            queries.append(_query("cli", argv))
    for i, (state, command) in enumerate(zip(STATES, PAPER_COMMANDS)):
        argv = _paper_argv(command, 2, state, rng.choice(("0", "1", "2")),
                           FORMATS[i % len(FORMATS)])
        queries.append(_query("cli", argv))
    for i, (steps, a, b) in enumerate(PAPER_COMPARES):
        final = STANDING_FINAL if steps == 3 and "standing" in (a, b) else rng.choice(("0", "1", "2"))
        argv = ["compare", "--sites", "3", "--steps", str(steps), "--state", a,
                "--with", b, "--final", final, "--format", FORMATS[i % len(FORMATS)]]
        key = " ".join(argv)
        argv += ["--threads", str(1 + i % 2)]
        queries.append(_query("cli", argv, key=key))
    return queries


# -- frontier -------------------------------------------------------------------

# (n, steps, state): few large classes, then even n (order-8 phases)
FRONTIER_FIXED = (
    (3, 4, "ground"),
    (3, 4, "plus"),
    (3, 4, "minus"),
    (3, 5, "plus"),
    (4, 2, "plus"),
    (4, 2, "minus"),
)
# refused by the count-vector guard at the seed; boxes of 5.6M to 14.5M
# points, all within what the checker can verify
FRONTIER_REACH = (
    (3, 4, "standing"),
    (4, 3, "plus"),
    (5, 3, "plus"),
    (3, 6, "plus"),
)
# Coefficient patterns of the custom states.  Each gives eight amplitude
# classes at (3, 3) (seven of three histories, one of six) whatever the
# seeded phases and sign, so every seed does comparable work.
CUSTOM_PATTERNS = ((-3, -1, 1), (-3, -2, -1), (-2, -1, 2))
CUSTOM_CLASSES = 8
BOX_GUARD = 1 << 20
MAX_DRAWS = 1000


def custom_states(rng: random.Random, n: int = 3, steps: int = 3) -> list[str]:
    """One seeded custom state per pattern, drawn until its box fits the guard."""
    out = []
    for pattern in CUSTOM_PATTERNS:
        for _ in range(MAX_DRAWS):
            sign = rng.choice((1, -1))
            terms = [f"{rng.randrange(n)}:{sign * c}" for c in pattern]
            state = "custom:" + ",".join(terms)
            cl = checker.classes(n, steps, state)
            if len(cl.counts) == CUSTOM_CLASSES and cl.box <= BOX_GUARD:
                out.append(state)
                break
        else:
            raise RuntimeError(f"no custom state for pattern {pattern} in {MAX_DRAWS} draws")
    return out


def frontier_argv(n: int, steps: int, state: str) -> list[str]:
    return ["preclusion", "--sites", str(n), "--steps", str(steps), "--state", state,
            "--final", "0", "--format", "json"]


def frontier_queries(rng: random.Random) -> list[dict]:
    points = [(p, False) for p in FRONTIER_FIXED]
    points += [((3, 3, s), False) for s in custom_states(rng)]
    points += [(p, True) for p in FRONTIER_REACH]
    queries = []
    for (n, steps, state), reach in points:
        q = _query("frontier", frontier_argv(n, steps, state), point=[n, steps, state],
                   reach=reach)
        if reach:
            q["budget_s"] = REACH_BUDGET_S
        queries.append(q)
    rng.shuffle(queries)
    return queries


# -- oracle ---------------------------------------------------------------------


def oracle_queries(rng: random.Random) -> list[dict]:
    """The 2^27 Gray-code walk at one and two threads on a seeded (3,3)
    space, and the primitive brute force on the 16-history spaces."""
    state, final = rng.choice(STATES), rng.randrange(3)
    queries = [
        _query("walk", [], key=f"walk 3 3 {state} {final}", point=[3, 3, state, final],
               threads=t)
        for t in (1, 2)
    ]
    for n, steps in ((4, 2), (2, 4)):
        s = rng.choice(STATES)
        queries.append(_query("primitive_bruteforce", [], key=f"primitive {n} {steps} {s} 0",
                              point=[n, steps, s, 0]))
    return queries


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's query list for one seed; `id` numbers the queries."""
    rng = random.Random(f"{workload}:{seed}")
    queries = {"paper": paper_queries, "frontier": frontier_queries,
               "oracle": oracle_queries}[workload](rng)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries
