"""Command-line front end.

Subcommands: model | histories | preclusion | primitives | classify |
compare | report.  Exit codes: 0 ok, 1 usage, 2 infeasible size,
3 internal invariant violation, 4 golden mismatch.  Identical arguments
produce byte-identical output regardless of --threads.
"""
from __future__ import annotations

import json
import sys
import types
from collections.abc import Iterable, Sequence
from importlib import resources
from typing import NamedTuple

from . import analysis
from .coevents import (  # noqa: F401  enumerate_primitive stays importable from here
    PrimitiveProfile,
    enumerate_primitive,
    primitive_profile,
)
from .cyclotomic import CycInt, root
from .errors import LIMITS, HopperError, InfeasibleSizeError, check_size
from .histories import (
    HistorySpace,
    amplitude_classes,
    check_history_guard,
    enumerate_histories,
    half_hop_count,
)
from .measure import count_precluded, preclusive_coevent_count_exponent, sector_tables
from .model import (
    STATE_LABELS,
    LatticeSpec,
    _is_unitary,
    check_unitarity,
    initial_state,
    transfer_matrix,
)
from .render import history_str, json_ready, value_label, write

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3
EXIT_GOLDEN_MISMATCH = 4

GOLDEN_RESOURCE = "report_n3_t3.json"


class UsageError(Exception):
    pass


FORMATS = ("text", "json", "csv")


class Option(NamedTuple):
    """One row of a command's option table: what `_fill` adds to argparse,
    and what `_scan` accepts without building a parser.  `kind` is `int`,
    `str`, or None for a flag that stores True."""

    flag: str
    dest: str
    kind: type | None
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None


_MODEL_OPTIONS = (
    Option("--sites", "sites", int, 3),
    Option("--format", "format", str, "text", FORMATS),
    Option("--out", "out", str),
)

_COMMON_OPTIONS = (
    Option("--sites", "sites", int, 3, help="number of lattice sites n"),
    Option("--steps", "steps", int, 3, help="number of time steps"),
    Option(
        "--state",
        "state",
        str,
        "plus",
        help="ground|plus|minus|standing|custom:<per-site terms>"
        " (term = integer coefficient, or exponent:coefficient over the n-th root)",
    ),
    Option("--final", "final", str, "0", help="final site, or 'all'"),
    Option("--format", "format", str, "text", FORMATS),
    Option("--out", "out", str, help="write output to a file instead of stdout"),
    Option("--threads", "threads", int, 1, help="accepted; changes no output or work"),
    Option("--max-histories", "max_histories", int, LIMITS.max_histories.default),
)

_PRIMITIVES_OPTIONS = _COMMON_OPTIONS + (
    Option(
        "--emit-supports",
        "emit_supports",
        None,
        False,
        help="include explicit supports (gate for large expansions)",
    ),
)

_COMPARE_OPTIONS = _COMMON_OPTIONS + (
    Option("--with", "other", str, required=True, help="second initial state"),
)


# -- config helpers --------------------------------------------------------------


def _parse_final(text: str, spec: LatticeSpec) -> int | None:
    if text == "all":
        return None
    try:
        final = int(text)
    except ValueError as exc:
        raise UsageError(f"--final must be an integer or 'all', got {text!r}") from exc
    spec.check_site(final)
    return final


def _parse_state(spec: LatticeSpec, text: str):
    if text in STATE_LABELS:
        return initial_state(spec, text)
    if text.startswith("custom:"):
        terms = text[len("custom:") :].split(",")
        if len(terms) != spec.n:
            raise UsageError(f"custom state needs {spec.n} terms, got {len(terms)}")
        amps = []
        for term in terms:
            try:
                if ":" in term:
                    e, c = term.split(":")
                    amps.append(root(spec.n, int(e)) * int(c))
                else:
                    amps.append(CycInt.from_int(int(term), spec.n))
            except ValueError as exc:
                raise UsageError(f"bad custom term {term!r}") from exc
        return initial_state(spec, "custom", tuple(amps))
    raise UsageError(f"unknown state {text!r}")


def _spec_from(args) -> LatticeSpec:
    try:
        return LatticeSpec(args.sites, getattr(args, "steps", 1))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _vector_entries(labels: Sequence[str], vec) -> list[dict]:
    """A count vector's nonzero entries; `labels` names each class's value."""
    return [{"class": label, "k": k} for label, k in zip(labels, vec) if k > 0]


# -- output -------------------------------------------------------------------------


def _emit(
    args, data: dict, table: tuple[Sequence[str], Iterable[Sequence]] | None = None
) -> None:
    """Write `render.write`'s rendering of `data` (or of `table`, in csv) in
    the chosen format to --out, or to stdout when no file is given."""
    text = write(getattr(args, "format", "text"), data, table)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# -- figures: what each command prints, and what `report` reads ---------------------


def _model_figures(spec: LatticeSpec) -> dict:
    matrix = transfer_matrix(spec)
    return {
        "n": spec.n,
        "phase_order": spec.phase_order,
        "hop_exponents": {str(d): e for d, e in enumerate(spec.hop_exponents)},
        "matrix": [[value_label(x) for x in row] for row in matrix],
        "unitary": _is_unitary(spec, matrix),
    }


def _head(space: HistorySpace, state: str) -> dict:
    final = "all" if space.final is None else space.final
    return {"n": space.spec.n, "steps": space.spec.steps, "state": state, "final": final}


def _history_fields(n: int) -> tuple[str, ...]:
    half_hops = ("half_hops",) if n % 2 == 0 else ()
    return ("index", "history", "amplitude", "circulation", "rests", *half_hops)


def _history_rows(space: HistorySpace) -> list[tuple]:
    """Each history's cells in `_history_fields` order."""
    n = space.spec.n
    amps = {id(a): a for a in space.amps}  # histories share a few amplitude objects
    labels = {key: value_label(a) for key, a in amps.items()}
    columns = [
        range(space.size),
        map(history_str, space.histories),
        map(labels.__getitem__, map(id, space.amps)),
        space.circulations,
        space.rest_counts,
    ]
    if n % 2 == 0:
        columns.append([half_hop_count(h, n) for h in space.histories])
    return list(zip(*columns))


def _histories_figures(space: HistorySpace, state: str) -> dict:
    fields = _history_fields(space.spec.n)
    return {
        **_head(space, state),
        "count": space.size,
        "classes": [
            {"final": c.final, "value": value_label(c.value), "count": c.count}
            for c in amplitude_classes(space).classes
        ],
        "histories": [dict(zip(fields, row)) for row in _history_rows(space)],
    }


def _preclusion_figures(space: HistorySpace, state: str) -> dict:
    classes = amplitude_classes(space)
    data = {
        **_head(space, state),
        "subsets_total": f"2^{space.size}",
        "precluded": count_precluded(classes),
        "preclusive_coevents_log2": preclusive_coevent_count_exponent(space),
    }
    maximal = {}
    for f, table in sector_tables(classes).items():
        labels = [value_label(v) for v in table.values]
        maximal[f] = [_vector_entries(labels, vec) for vec in table.maximal_zero]
    if space.final is not None:
        data["maximal_zero_vectors"] = maximal[space.final]
    else:
        data["maximal_zero_vectors_by_final"] = maximal
    return data


def _primitives_figures(profile: PrimitiveProfile, state: str) -> dict:
    labels = [value_label(c.value) for c in profile.classes.classes]
    return {
        "state": state,
        "final": profile.space.final,
        "count": profile.count,
        "support_sizes": profile.size_histogram(),
        "minimal_class_vectors": [_vector_entries(labels, vec) for vec in profile.minimal],
    }


CLASSIFY_EVENTS = ("never_moves", "never_rests", "rests_exactly_once", "circulates_positive_only")


def _classify_figures(profile: PrimitiveProfile, state: str) -> dict:
    space = profile.space

    def tally(event) -> dict[str, int]:
        return analysis.ensemble_event_tally(profile, event)._asdict()

    pos_net = analysis.ensemble_positive_only_circulations(profile)
    return {
        **_head(space, state),
        "count": profile.count,
        "restlessness": analysis.ensemble_restlessness(profile),
        "circulation": {
            # the one home of the rule: an empty ensemble prints a null average
            "average": (
                analysis.ensemble_average_circulation(profile) if profile.count else None
            ),
            "positive_only_affirmed": len(pos_net),
            "positive_only_net": pos_net,
        },
        "event_affirmations": {
            name: profile.count_within(analysis.event_by_name(space, name).members)
            for name in CLASSIFY_EVENTS
        },
        "avoids_site": {
            s: tally(analysis.avoids_site_event(space, s)) for s in range(space.spec.n)
        },
        "avoids_any_site": tally(analysis.avoids_any_site_event(space)),
    }


# -- commands -----------------------------------------------------------------------


def _space(args, fixed_for: str | None = None) -> HistorySpace:
    """The space a command reads.  A bad --state is reported before a bad
    --final; `fixed_for` names a command that needs a fixed final site."""
    spec = _spec_from(args)
    state = _parse_state(spec, args.state)
    final = _parse_final(args.final, spec)
    if fixed_for and final is None:
        raise UsageError(f"{fixed_for} needs a fixed final site (--final <int>)")
    return enumerate_histories(spec, state, final, max_histories=args.max_histories)


def cmd_model(args) -> int:
    # refused before the lattice builds its phase row of n entries
    check_size("model of {} sites", args.sites, LIMITS.model_sites.default, LIMITS.model_sites)
    spec = _spec_from(args)
    data = _model_figures(spec)
    _emit(args, data)
    return EXIT_OK if data["unitary"] else EXIT_INTERNAL


def cmd_histories(args) -> int:
    space = _space(args)
    data = _histories_figures(space, args.state)
    rows = [record.values() for record in data["histories"]]
    _emit(args, data, (_history_fields(space.spec.n), rows))
    return EXIT_OK


def cmd_preclusion(args) -> int:
    _emit(args, _preclusion_figures(_space(args), args.state))
    return EXIT_OK


def cmd_primitives(args) -> int:
    profile = primitive_profile(_space(args, "primitives"))
    data = _primitives_figures(profile, args.state)
    table = None
    if args.emit_supports:
        supports = profile.supports()
        data["supports"] = supports
        if args.format == "csv":  # only csv prints records
            table = (("coevent_id", "support"), enumerate(supports))
    _emit(args, data, table)
    return EXIT_OK


def cmd_classify(args) -> int:
    space = _space(args, "classify")
    profile = primitive_profile(space)
    data = _classify_figures(profile, args.state)
    table = None
    if args.format == "csv":  # only csv prints per-coevent rows, so only csv expands
        events = {name: analysis.event_by_name(space, name) for name in CLASSIFY_EVENTS}
        table = (
            analysis.coevent_fields(events),
            analysis.coevent_rows(profile.supports(), space, events),
        )
    _emit(args, data, table)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _spec_from(args)
    for label in (args.state, args.other):
        if label not in STATE_LABELS:
            raise UsageError(f"compare works over named states, got {label!r}")
    final = _parse_final(args.final, spec)
    if final is None:
        raise UsageError("compare needs a fixed final site (--final <int>)")
    pair = (args.state, args.other)
    rep = analysis.discrimination_report(spec, pair, final, max_histories=args.max_histories)
    a, b = (analysis.named_ensemble(spec, lb, final, args.max_histories) for lb in pair)
    data = {
        "n": spec.n,
        "steps": spec.steps,
        "final": final,
        "states": list(pair),
        "counts": rep.counts,
        "overlap": rep.overlaps[pair],
        "common_supports": [list(s) for s in a.shared_supports(b)],
        "witness_affirmations": rep.witness_counts,
        "separating_events": rep.separators,
    }
    _emit(args, data)
    return EXIT_OK


# -- report -------------------------------------------------------------------------


def _build_criteria(
    spec: LatticeSpec, disc: analysis.DiscriminationReport, max_histories: int
) -> dict:
    """The paper's criteria: the figures `model`, `histories`, `preclusion`,
    `primitives` and `classify` print for ground, plus and minus at final
    site 0, taken from their profiles in `analysis.named_ensemble`; the
    overlaps of `disc` (those three states at final site 0), the ground-plus
    overlap at two steps, and the symmetry report."""
    n = spec.n
    # plus first, so that a refusal of a plus figure is the one reported
    profiles = {
        lb: analysis.named_ensemble(spec, lb, 0, max_histories)
        for lb in ("plus", "ground", "minus")
    }
    pre = {lb: _preclusion_figures(profiles[lb].space, lb) for lb in ("plus", "ground")}
    prim = {lb: _primitives_figures(p, lb) for lb, p in profiles.items()}
    cls = {lb: _classify_figures(p, lb) for lb, p in profiles.items()}
    circ = {lb: figures["circulation"] for lb, figures in cls.items()}
    avoids_any = {lb: cls[lb]["avoids_any_site"] for lb in ("ground", "plus")}

    def class_counts(lb: str) -> dict[str, int]:
        return {value_label(c.value): c.count for c in profiles[lb].classes.classes}

    ground2, plus2 = (
        analysis.named_ensemble(LatticeSpec(n, 2), lb, 0, max_histories)
        for lb in ("ground", "plus")
    )
    t2_overlap = ground2.shared(plus2)

    sym = analysis.ensemble_symmetry_report(spec, "ground", max_histories=max_histories)
    nontrivial = [sym.shifts[s] for s in range(1, n)]

    return {
        "unitarity_2_to_8": all(check_unitarity(LatticeSpec(k, 1)) for k in range(2, 9)),
        "histories_unrestricted": n ** (spec.steps + 1),
        "histories_fixed_final": profiles["plus"].space.size,
        "class_counts_plus": class_counts("plus"),
        "class_counts_ground": class_counts("ground"),
        "subsets_total": pre["plus"]["subsets_total"],
        "precluded_plus": pre["plus"]["precluded"],
        "precluded_ground": pre["ground"]["precluded"],
        "preclusive_coevents_log2": pre["plus"]["preclusive_coevents_log2"],
        "maximal_zero_vectors_plus": [
            {e["class"]: e["k"] for e in vec} for vec in pre["plus"]["maximal_zero_vectors"]
        ],
        "primitive_count_plus": prim["plus"]["count"],
        "primitive_count_ground": prim["ground"]["count"],
        "primitive_count_minus": prim["minus"]["count"],
        "support_sizes_plus": prim["plus"]["support_sizes"],
        "support_sizes_ground": prim["ground"]["support_sizes"],
        "positive_only_affirmed_plus": circ["plus"]["positive_only_affirmed"],
        "positive_only_net_circulations": circ["plus"]["positive_only_net"],
        "average_circulation_plus": circ["plus"]["average"],
        "average_circulation_ground": circ["ground"]["average"],
        "average_circulation_minus": circ["minus"]["average"],
        "restlessness_ground": cls["ground"]["restlessness"],
        "avoids_site_affirmed_max": max(
            tally["affirmed"]
            for lb in ("ground", "plus")
            for tally in cls[lb]["avoids_site"].values()
        ),
        "avoids_any_site_affirmed_ground": avoids_any["ground"]["affirmed"],
        "avoids_any_site_affirmed_plus": avoids_any["plus"]["affirmed"],
        "anhomomorphism_witnesses_min": min(v["both_denied"] for v in avoids_any.values()),
        "overlap_ground_plus": disc.overlaps[("ground", "plus")],
        "overlap_plus_minus": disc.overlaps[("plus", "minus")],
        "overlap_ground_plus_two_steps": t2_overlap,
        "symmetry_individual_invariant_max": max(
            sh.individual_invariant for sh in nontrivial
        ),
        "symmetry_ensemble_invariant": all(sh.ensemble_invariant for sh in nontrivial),
        "ensemble_size_all_finals": sym.ensemble_size,
    }


def _standing_section(profile: PrimitiveProfile, disc: analysis.DiscriminationReport) -> dict:
    """The standing wave's `classify` figures from its profile, and its
    overlaps from `disc`, which includes it among its states."""
    figures = _classify_figures(profile, "standing")
    return {
        "unverified_by_paper": True,
        "primitive_count": figures["count"],
        "restlessness": figures["restlessness"],
        "average_circulation": figures["circulation"]["average"],
        "overlaps": {
            "|".join(pair): k
            for pair, k in sorted(disc.overlaps.items())
            if "standing" in pair
        },
    }


def _load_golden() -> dict:
    with resources.files("qhopper.golden").joinpath(GOLDEN_RESOURCE).open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def _compare_golden(criteria: dict, golden: dict) -> list[dict]:
    mismatches = []
    actual = json_ready(criteria)
    for key, expected in golden["criteria"].items():
        got = actual.get(key)
        if isinstance(expected, dict) and expected.get("positive") is True:
            ok = isinstance(got, int) and got > 0
        else:
            ok = got == expected
        if not ok:
            mismatches.append({"key": key, "expected": expected, "actual": got})
    return mismatches


def cmd_report(args) -> int:
    spec = _spec_from(args)
    # --state picks the optional standing section and --final nothing, but
    # both are checked as every other command checks them
    _parse_state(spec, args.state)
    _parse_final(args.final, spec)
    # a report analyses fixed-final spaces only; a larger one (the two-step
    # overlap when T = 1) is refused where it is built
    check_history_guard(spec, 0, args.max_histories)
    standing = args.state == "standing"
    labels = ("ground", "plus", "minus") + (("standing",) if standing else ())
    disc = analysis.discrimination_report(spec, labels, 0, max_histories=args.max_histories)
    criteria = _build_criteria(spec, disc, args.max_histories)
    data = {
        "config": {"n": spec.n, "steps": spec.steps},
        "criteria": criteria,
    }
    if standing:
        profile = analysis.named_ensemble(spec, "standing", 0, args.max_histories)
        data["standing"] = _standing_section(profile, disc)
    checked = (spec.n, spec.steps) == (3, 3)
    if checked:
        mismatches = _compare_golden(criteria, _load_golden())
        data["golden_comparison"] = {
            "checked": True,
            "pass": not mismatches,
            "mismatches": mismatches,
        }
    else:
        data["golden_comparison"] = {"checked": False}
    _emit(args, data)
    if checked and data["golden_comparison"]["mismatches"]:
        for m in data["golden_comparison"]["mismatches"]:
            print(
                f"golden mismatch: {m['key']}: expected {m['expected']!r}, "
                f"got {m['actual']!r}",
                file=sys.stderr,
            )
        return EXIT_GOLDEN_MISMATCH
    return EXIT_OK


# -- parsers ------------------------------------------------------------------------

# name -> (help line, option table, handler)
_COMMANDS = {
    "model": ("transfer matrix and unitarity check", _MODEL_OPTIONS, cmd_model),
    "histories": ("enumerate histories and amplitude classes", _COMMON_OPTIONS, cmd_histories),
    "preclusion": ("count precluded events exactly", _COMMON_OPTIONS, cmd_preclusion),
    "primitives": ("enumerate primitive coevents", _PRIMITIVES_OPTIONS, cmd_primitives),
    "classify": ("circulation, restlessness, event verdicts", _COMMON_OPTIONS, cmd_classify),
    "compare": ("overlap of primitive coevents of two states", _COMPARE_OPTIONS, cmd_compare),
    "report": ("full reproduction bundle with golden check", _COMMON_OPTIONS, cmd_report),
}


def _fill(p, command: str) -> None:
    _, options, handler = _COMMANDS[command]
    for o in options:
        if o.kind is None:
            p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
        else:
            p.add_argument(
                o.flag, dest=o.dest, type=o.kind, default=o.default, choices=o.choices,
                required=o.required, help=o.help,
            )
    p.set_defaults(command=command, func=handler)


def _build_parser():
    """The full command tree: top-level help and usage, and every command.

    argparse is imported here, so a well-formed argv, which `_scan` reads,
    never loads it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(prog="qhopper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def _scan(argv: list[str]) -> types.SimpleNamespace | None:
    """What the tree parses a well-formed `argv` to, read from the option
    table alone: a namespace with the tree's attributes.  Well-formed is the
    command, then exact `--option value` pairs (a value not starting with
    '-', an int that converts, a choice among the choices) and flags, with
    every required option present.  None for anything else."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, handler = _COMMANDS[argv[0]]
    by_flag = {o.flag: o for o in options}
    values = {o.dest: o.default for o in options}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        o = by_flag.get(token)
        if o is None:
            return None
        given.add(o.dest)
        if o.kind is None:
            values[o.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if o.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    if any(o.required and o.dest not in given for o in options):
        return None
    return types.SimpleNamespace(**values, command=argv[0], func=handler)


def _parse_args(argv: list[str]):
    """Parse `argv` as the full command tree does.

    A well-formed argv is read from the option table by `_scan`, and no
    parser is built.  Anything else (help, `--option=value`, abbreviations,
    unknown tokens, missing or bad values, a missing or unknown command)
    goes through the tree, which parses or reports it."""
    args = _scan(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError covers invalid sites and unknown states
        print(f"qhopper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleSizeError as exc:
        print(f"qhopper: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except HopperError as exc:
        print(f"qhopper: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
