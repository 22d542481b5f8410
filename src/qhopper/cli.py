"""Command-line front end.

Subcommands: model | histories | preclusion | primitives | classify |
compare | report.  Exit codes: 0 ok, 1 usage, 2 infeasible size,
3 internal invariant violation, 4 golden mismatch.  Identical arguments
produce byte-identical output regardless of --threads.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

from . import analysis
from .coevents import enumerate_primitive, minimal_preclusive_vectors
from .cyclotomic import CycInt, root
from .errors import LIMITS, HopperError, InfeasibleSizeError, check_size
from .histories import (
    amplitude_classes,
    check_history_guard,
    circulation,
    enumerate_histories,
    half_hop_count,
    rest_count,
)
from .measure import count_precluded, maximal_zero_count_vectors, sector_tables
from .model import (
    STATE_LABELS,
    LatticeSpec,
    check_unitarity,
    initial_state,
    transfer_matrix,
)
from .render import dumps_canonical, history_str, json_ready, value_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3
EXIT_GOLDEN_MISMATCH = 4

GOLDEN_RESOURCE = "report_n3_t3.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, *, with_state: bool = True) -> None:
    p.add_argument("--sites", type=int, default=3, help="number of lattice sites n")
    p.add_argument("--steps", type=int, default=3, help="number of time steps")
    if with_state:
        p.add_argument(
            "--state",
            default="plus",
            help="ground|plus|minus|standing|custom:<per-site terms>"
            " (term = integer coefficient, or exponent:coefficient over the n-th root)",
        )
    p.add_argument("--final", default="0", help="final site, or 'all'")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument(
        "--threads", type=int, default=1, help="accepted; changes no output or work"
    )
    p.add_argument("--max-histories", type=int, default=LIMITS.max_histories.default)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qhopper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("model", help="transfer matrix and unitarity check")
    p.add_argument("--sites", type=int, default=3)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("histories", help="enumerate histories and amplitude classes")
    _add_common(p)
    p.set_defaults(func=cmd_histories)

    p = sub.add_parser("preclusion", help="count precluded events exactly")
    _add_common(p)
    p.set_defaults(func=cmd_preclusion)

    p = sub.add_parser("primitives", help="enumerate primitive coevents")
    _add_common(p)
    p.add_argument(
        "--emit-supports",
        action="store_true",
        help="include explicit supports (gate for large expansions)",
    )
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("classify", help="circulation, restlessness, event verdicts")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="overlap of primitive coevents of two states")
    _add_common(p)
    p.add_argument("--with", dest="other", required=True, help="second initial state")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="full reproduction bundle with golden check")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


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


def _vector_entries(table, vec) -> list[dict]:
    return [
        {"class": value_label(v), "k": k}
        for v, k in zip(table.values, vec)
        if k > 0
    ]


def _complement_verdicts(coevs, event) -> dict[str, int]:
    v = analysis.event_verdicts(coevs, event, with_complement=True)
    return {
        "affirmed": v.affirmed,
        "complement_affirmed": v.complement_affirmed,
        "both_denied": v.both_denied,
    }


# -- output rendering --------------------------------------------------------------


def _text_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
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
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


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


def _emit(args, data: dict, records: list[dict] | None = None) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        text = dumps_canonical(data)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if records:
            fields = list(records[0].keys())
            writer.writerow(fields)
            for rec in json_ready(records):
                writer.writerow(
                    [
                        " ".join(str(x) for x in v) if isinstance(v, (list, tuple)) else v
                        for v in (rec[f] for f in fields)
                    ]
                )
        else:
            writer.writerow(["key", "value"])
            for key, value in _flatten(json_ready(data)):
                writer.writerow([key, value])
        text = buf.getvalue()
    else:
        text = "\n".join(_text_lines(json_ready(data))) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------------


def cmd_model(args) -> int:
    spec = _spec_from(args)
    check_size("model of {} sites", spec.n, None, LIMITS.model_sites)
    u = transfer_matrix(spec)
    unitary = check_unitarity(spec)
    data = {
        "n": spec.n,
        "phase_order": spec.phase_order,
        "hop_exponents": {
            str(d): (d * d) % spec.phase_order for d in range(spec.n)
        },
        "matrix": [[value_label(x) for x in row] for row in u],
        "unitary": unitary,
    }
    _emit(args, data)
    return EXIT_OK if unitary else EXIT_INTERNAL


def cmd_histories(args) -> int:
    spec = _spec_from(args)
    state = _parse_state(spec, args.state)
    final = _parse_final(args.final, spec)
    space = enumerate_histories(spec, state, final, max_histories=args.max_histories)
    classes = amplitude_classes(space)
    records = []
    for i, h in enumerate(space.histories):
        rec = {
            "index": i,
            "history": history_str(h),
            "amplitude": value_label(space.amps[i]),
            "circulation": circulation(h, spec.n),
            "rests": rest_count(h),
        }
        if spec.n % 2 == 0:
            rec["half_hops"] = half_hop_count(h, spec.n)
        records.append(rec)
    data = {
        "n": spec.n,
        "steps": spec.steps,
        "state": args.state,
        "final": "all" if final is None else final,
        "count": space.size,
        "classes": [
            {"final": c.final, "value": value_label(c.value), "count": c.count}
            for c in classes.classes
        ],
        "histories": records,
    }
    _emit(args, data, records)
    return EXIT_OK


def cmd_preclusion(args) -> int:
    spec = _spec_from(args)
    state = _parse_state(spec, args.state)
    final = _parse_final(args.final, spec)
    space = enumerate_histories(spec, state, final, max_histories=args.max_histories)
    classes = amplitude_classes(space)
    precluded = count_precluded(classes)
    data = {
        "n": spec.n,
        "steps": spec.steps,
        "state": args.state,
        "final": "all" if final is None else final,
        "subsets_total": f"2^{space.size}",
        "precluded": precluded,
        "preclusive_coevents_log2": (1 << space.size) - precluded,
    }
    maximal = {
        f: [_vector_entries(table, vec) for vec in sorted(table.maximal_zero)]
        for f, table in sector_tables(classes).items()
    }
    if final is not None:
        data["maximal_zero_vectors"] = maximal[final]
    else:
        data["maximal_zero_vectors_by_final"] = maximal
    _emit(args, data)
    return EXIT_OK


def cmd_primitives(args) -> int:
    spec = _spec_from(args)
    state = _parse_state(spec, args.state)
    final = _parse_final(args.final, spec)
    if final is None:
        raise UsageError("primitives needs a fixed final site (--final <int>)")
    space = enumerate_histories(spec, state, final, max_histories=args.max_histories)
    classes = amplitude_classes(space)
    table = sector_tables(classes)[final]
    coevs = enumerate_primitive(space)
    data = {
        "state": args.state,
        "final": final,
        "count": len(coevs),
        "support_sizes": analysis.support_size_histogram(coevs),
        "minimal_class_vectors": [
            _vector_entries(table, vec)
            for vec in minimal_preclusive_vectors(classes)
        ],
    }
    records = None
    if args.emit_supports:
        data["supports"] = [list(phi.indices()) for phi in coevs]
        records = [
            {"coevent_id": i, "support": list(phi.indices())}
            for i, phi in enumerate(coevs)
        ]
    _emit(args, data, records)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = _spec_from(args)
    state = _parse_state(spec, args.state)
    final = _parse_final(args.final, spec)
    if final is None:
        raise UsageError("classify needs a fixed final site (--final <int>)")
    space = enumerate_histories(spec, state, final, max_histories=args.max_histories)
    coevs = enumerate_primitive(space)
    events = {
        name: analysis.event_by_name(space, name)
        for name in ("never_moves", "never_rests", "rests_exactly_once",
                     "circulates_positive_only")
    }
    pos_net = analysis.positive_only_circulations(space, coevs)
    data = {
        "n": spec.n,
        "steps": spec.steps,
        "state": args.state,
        "final": final,
        "count": len(coevs),
        "restlessness": analysis.classify_restlessness(coevs),
        "circulation": {
            "average": analysis.average_net_circulation(coevs),
            "positive_only_affirmed": len(pos_net),
            "positive_only_net": pos_net,
        },
        "event_affirmations": {
            name: analysis.event_verdicts(coevs, ev).affirmed
            for name, ev in events.items()
        },
        "avoids_site": {
            s: _complement_verdicts(coevs, analysis.avoids_site_event(space, s))
            for s in range(spec.n)
        },
        "avoids_any_site": _complement_verdicts(
            coevs, analysis.avoids_any_site_event(space)
        ),
    }
    records = analysis.coevent_records(coevs, events)
    _emit(args, data, records)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _spec_from(args)
    final = _parse_final(args.final, spec)
    if final is None:
        raise UsageError("compare needs a fixed final site (--final <int>)")
    for label in (args.state, args.other):
        if label not in STATE_LABELS:
            raise UsageError(f"compare works over named states, got {label!r}")
    rep = analysis.discrimination_report(
        spec, (args.state, args.other), final, max_histories=args.max_histories
    )
    pair = (args.state, args.other)
    data = {
        "n": spec.n,
        "steps": spec.steps,
        "final": final,
        "states": list(pair),
        "counts": rep.counts,
        "overlap": rep.overlaps[pair],
        "common_supports": [list(s) for s in rep.common[pair]],
        "witness_affirmations": rep.witness_counts,
        "separating_events": rep.separators,
    }
    _emit(args, data)
    return EXIT_OK


# -- report -------------------------------------------------------------------------


def _build_criteria(
    spec: LatticeSpec, disc: analysis.DiscriminationReport, max_histories: int
) -> dict:
    """The paper's criteria; `disc` holds ground/plus/minus at final site 0."""
    n = spec.n
    spaces, ensembles = {}, {}
    for lb in ("ground", "plus", "minus"):
        spaces[lb], ensembles[lb] = analysis.named_ensemble(spec, lb, 0, max_histories)
    all_space = enumerate_histories(
        spec, initial_state(spec, "plus"), None, max_histories=max_histories
    )
    classes = {lb: amplitude_classes(sp) for lb, sp in spaces.items()}

    def class_counts(lb: str) -> dict[str, int]:
        return {value_label(c.value): c.count for c in classes[lb].classes}

    precluded = {lb: count_precluded(classes[lb]) for lb in spaces}
    table_plus = sector_tables(classes["plus"])[0]
    pos_net = analysis.positive_only_circulations(spaces["plus"], ensembles["plus"])

    avoids_max = 0
    avoids_any = {}
    for lb in ("ground", "plus"):
        for s in range(n):
            avoids_max = max(
                avoids_max,
                analysis.event_verdicts(
                    ensembles[lb], analysis.avoids_site_event(spaces[lb], s)
                ).affirmed,
            )
        avoids_any[lb] = _complement_verdicts(
            ensembles[lb], analysis.avoids_any_site_event(spaces[lb])
        )

    t2_overlap = analysis.discrimination_report(
        LatticeSpec(n, 2), ("ground", "plus"), 0, max_histories=max_histories
    ).overlaps[("ground", "plus")]

    sym = analysis.ensemble_symmetry_report(spec, "ground", max_histories=max_histories)
    nontrivial = [sym.shifts[s] for s in range(1, n)]

    return {
        "unitarity_2_to_8": all(check_unitarity(LatticeSpec(k, 1)) for k in range(2, 9)),
        "histories_unrestricted": all_space.size,
        "histories_fixed_final": spaces["plus"].size,
        "class_counts_plus": class_counts("plus"),
        "class_counts_ground": class_counts("ground"),
        "subsets_total": f"2^{spaces['plus'].size}",
        "precluded_plus": precluded["plus"],
        "precluded_ground": precluded["ground"],
        "preclusive_coevents_log2": (1 << spaces["plus"].size) - precluded["plus"],
        "maximal_zero_vectors_plus": [
            {value_label(v): k for v, k in zip(table_plus.values, vec) if k}
            for vec in maximal_zero_count_vectors(classes["plus"])
        ],
        "primitive_count_plus": len(ensembles["plus"]),
        "primitive_count_ground": len(ensembles["ground"]),
        "primitive_count_minus": len(ensembles["minus"]),
        "support_sizes_plus": analysis.support_size_histogram(ensembles["plus"]),
        "support_sizes_ground": analysis.support_size_histogram(ensembles["ground"]),
        "positive_only_affirmed_plus": len(pos_net),
        "positive_only_net_circulations": pos_net,
        "average_circulation_plus": analysis.average_net_circulation(ensembles["plus"]),
        "average_circulation_ground": analysis.average_net_circulation(
            ensembles["ground"]
        ),
        "average_circulation_minus": analysis.average_net_circulation(
            ensembles["minus"]
        ),
        "restlessness_ground": analysis.classify_restlessness(ensembles["ground"]),
        "avoids_site_affirmed_max": avoids_max,
        "avoids_any_site_affirmed_ground": avoids_any["ground"]["affirmed"],
        "avoids_any_site_affirmed_plus": avoids_any["plus"]["affirmed"],
        "anhomomorphism_witnesses_min": min(
            v["both_denied"] for v in avoids_any.values()
        ),
        "overlap_ground_plus": disc.overlaps[("ground", "plus")],
        "overlap_plus_minus": disc.overlaps[("plus", "minus")],
        "overlap_ground_plus_two_steps": t2_overlap,
        "symmetry_individual_invariant_max": max(
            sh.individual_invariant for sh in nontrivial
        ),
        "symmetry_ensemble_invariant": all(sh.ensemble_invariant for sh in nontrivial),
        "ensemble_size_all_finals": sym.ensemble_size,
    }


def _standing_section(
    spec: LatticeSpec, disc: analysis.DiscriminationReport, max_histories: int
) -> dict:
    """The standing wave's statistics; `disc` includes it among its states."""
    _, coevs = analysis.named_ensemble(spec, "standing", 0, max_histories)
    return {
        "unverified_by_paper": True,
        "primitive_count": len(coevs),
        "restlessness": analysis.classify_restlessness(coevs),
        "average_circulation": analysis.average_net_circulation(coevs),
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
    # the largest space a report builds is the unrestricted one
    check_history_guard(spec, None, args.max_histories)
    standing = args.state == "standing"
    labels = ("ground", "plus", "minus") + (("standing",) if standing else ())
    disc = analysis.discrimination_report(spec, labels, 0, max_histories=args.max_histories)
    criteria = _build_criteria(spec, disc, args.max_histories)
    data = {
        "config": {"n": spec.n, "steps": spec.steps},
        "criteria": criteria,
    }
    if standing:
        data["standing"] = _standing_section(spec, disc, args.max_histories)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError covers invalid sites, unknown states, malformed env overrides
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
