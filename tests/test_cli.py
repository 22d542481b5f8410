from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhopper
from qhopper import (
    LatticeSpec,
    amplitude_classes,
    count_precluded,
    count_primitive,
    enumerate_histories,
    initial_state,
)
from qhopper.cli import main

QHOPPER_MODULES = (
    "analysis", "cli", "coevents", "histories", "measure", "model", "subsetwalk",
)
BENCH = Path(__file__).resolve().parents[1] / "bench"
RECORDED = BENCH / "expected.json"


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_model_two_sites(capsys):
    code, data = run_json(capsys, "model", "--sites", "2")
    assert code == 0
    assert data["unitary"] is True
    assert data["matrix"] == [["1", "i"], ["i", "1"]]


def test_model_three_sites(capsys):
    code, data = run_json(capsys, "model", "--sites", "3")
    assert code == 0
    assert data["matrix"][0] == ["1", "ω", "ω"]
    assert data["matrix"][1][1] == "1"


def test_model_six_sites_hop_exponents(capsys):
    code, data = run_json(capsys, "model", "--sites", "6")
    assert code == 0
    assert data["phase_order"] == 12
    assert [data["hop_exponents"][str(d)] for d in range(4)] == [0, 1, 4, 9]


def test_histories_command(capsys):
    code, data = run_json(
        capsys, "histories", "--sites", "3", "--steps", "3", "--state", "plus",
        "--final", "0",
    )
    assert code == 0
    assert data["count"] == 27
    counts = {c["value"]: c["count"] for c in data["classes"]}
    assert counts == {"1": 9, "ω̄": 12, "ω": 6}


def test_preclusion_command(capsys):
    code, data = run_json(
        capsys, "preclusion", "--sites", "3", "--steps", "3", "--state", "plus",
        "--final", "0",
    )
    assert code == 0
    assert data["subsets_total"] == "2^27"
    assert data["precluded"] == 2017807
    assert data["preclusive_coevents_log2"] == 132199921
    assert data["maximal_zero_vectors"] == [
        [
            {"class": "1", "k": 6},
            {"class": "ω̄", "k": 6},
            {"class": "ω", "k": 6},
        ]
    ]


def test_primitives_command(capsys):
    code, data = run_json(
        capsys, "primitives", "--sites", "3", "--steps", "3", "--state", "plus",
        "--final", "0", "--emit-supports",
    )
    assert code == 0
    assert data["count"] == 828
    assert data["support_sizes"] == {"7": 828}
    assert len(data["supports"]) == 828
    assert all(len(s) == 7 for s in data["supports"])


def test_classify_command(capsys):
    code, data = run_json(
        capsys, "classify", "--sites", "3", "--steps", "3", "--state", "ground",
        "--final", "0",
    )
    assert code == 0
    assert data["restlessness"] == {
        "all_moving": 8, "mixed_6v1": 28, "rest_once_each": 792, "other": 0
    }
    assert data["circulation"]["average"] == "0"
    assert all(v["affirmed"] == 0 for v in data["avoids_site"].values())


def test_compare_command(capsys):
    code, data = run_json(
        capsys, "compare", "--sites", "3", "--steps", "2", "--state", "ground",
        "--with", "plus", "--final", "0",
    )
    assert code == 0
    assert data["overlap"] > 0
    assert len(data["common_supports"]) == data["overlap"]


def test_compare_disjoint_at_three_steps(capsys):
    code, data = run_json(
        capsys, "compare", "--sites", "3", "--steps", "3", "--state", "plus",
        "--with", "minus", "--final", "0",
    )
    assert code == 0
    assert data["overlap"] == 0


def test_report_passes_golden(capsys):
    code, data = run_json(capsys, "report")
    assert code == 0
    assert data["golden_comparison"]["checked"] is True
    assert data["golden_comparison"]["pass"] is True
    assert data["criteria"]["precluded_plus"] == 2017807


def test_report_skips_golden_off_default(capsys):
    code, data = run_json(capsys, "report", "--steps", "2")
    assert code == 0
    assert data["golden_comparison"] == {"checked": False}
    assert data["criteria"]["overlap_ground_plus"] > 0  # T=2 ensembles overlap


@pytest.mark.parametrize(
    "option, message",
    [
        (["--state", "bogus", "--final", "9"], "unknown state 'bogus'"),
        (["--state", "custom:1,2"], "custom state needs 3 terms, got 2"),
        (["--final", "x"], "--final must be an integer or 'all', got 'x'"),
        (["--final", "9"], "site 9 outside 0..2"),
    ],
    ids=["state", "custom-terms", "final-text", "final-site"],
)
def test_report_refuses_a_bad_state_or_final_as_the_other_commands_do(capsys, option, message):
    for command in ("preclusion", "report"):
        assert main([command, *option]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--state", "ground", "--with", "plus", "--final", "all"],
         "compare needs a fixed final site (--final <int>)"),
        (["compare", "--state", "custom:1,0,2", "--with", "plus", "--final", "0"],
         "compare works over named states, got 'custom:1,0,2'"),
        (["compare", "--state", "bogus", "--with", "plus", "--final", "9"],
         "compare works over named states, got 'bogus'"),
        (["preclusion", "--state", "custom:1,x,2"], "bad custom term 'x'"),
    ],
    ids=["compare-all", "compare-custom", "compare-state-before-final", "custom-term"],
)
def test_usage_refusals_exit_1_with_one_error_line(capsys, argv, message):
    # compare, like the other commands, reports a bad --state before a bad --final
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qhopper: error: {message}\n"


def test_report_standing_flagged(capsys):
    code, data = run_json(capsys, "report", "--state", "standing")
    assert code == 0
    assert data["standing"]["unverified_by_paper"] is True
    assert data["standing"]["primitive_count"] > 0


@pytest.mark.parametrize("n, steps", [(2, 4), (3, 2), (3, 4), (4, 2), (5, 2)])
def test_report_agrees_with_the_commands(capsys, n, steps):
    # every criterion a command also prints equals that command's field at final 0
    size = ("--sites", str(n), "--steps", str(steps))
    code, report = run_json(capsys, "report", *size)
    assert code == 0
    got = report["criteria"]
    fig = {}
    for command in ("preclusion", "primitives", "classify"):
        for state in ("ground", "plus", "minus"):
            code, fig[command, state] = run_json(
                capsys, command, *size, "--state", state, "--final", "0"
            )
            assert code == 0
    for state in ("ground", "plus"):
        assert got[f"precluded_{state}"] == fig["preclusion", state]["precluded"]
        assert got[f"support_sizes_{state}"] == fig["primitives", state]["support_sizes"]
        assert (got[f"avoids_any_site_affirmed_{state}"]
                == fig["classify", state]["avoids_any_site"]["affirmed"])
    plus = fig["preclusion", "plus"]
    assert got["subsets_total"] == plus["subsets_total"]
    assert got["preclusive_coevents_log2"] == plus["preclusive_coevents_log2"]
    for state in ("ground", "plus", "minus"):
        assert got[f"primitive_count_{state}"] == fig["primitives", state]["count"]
        assert got[f"primitive_count_{state}"] == fig["classify", state]["count"]
        assert (got[f"average_circulation_{state}"]
                == fig["classify", state]["circulation"]["average"])
    assert got["restlessness_ground"] == fig["classify", "ground"]["restlessness"]
    circulation = fig["classify", "plus"]["circulation"]
    assert got["positive_only_affirmed_plus"] == circulation["positive_only_affirmed"]
    assert got["positive_only_net_circulations"] == circulation["positive_only_net"]
    tallies = [fig["classify", state] for state in ("ground", "plus")]
    assert got["avoids_site_affirmed_max"] == max(
        t["affirmed"] for f in tallies for t in f["avoids_site"].values()
    )
    assert got["anhomomorphism_witnesses_min"] == min(
        f["avoids_any_site"]["both_denied"] for f in tallies
    )


def test_compare_of_a_state_with_itself_separates_nothing(capsys):
    code, data = run_json(capsys, "compare", "--state", "plus", "--with", "plus")
    assert code == 0
    assert data["overlap"] == data["counts"]["plus"] > 0
    assert set(data["separating_events"].values()) == {None}


def test_usage_errors_exit_one(capsys):
    assert main(["model", "--sites", "1"]) == 1
    assert main(["primitives", "--final", "all"]) == 1
    assert main(["histories", "--state", "excited"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


# one argv per command, with options set away from their defaults
REPRESENTATIVE_ARGVS = {
    "model": ["--sites", "4", "--format", "json", "--out", "m.json"],
    "histories": ["--sites", "2", "--steps", "4", "--state", "ground", "--final", "all",
                  "--format", "csv", "--out", "h.csv", "--threads", "2",
                  "--max-histories", "99"],
    "preclusion": ["--state", "custom:2,-1,-1", "--final", "1", "--threads", "8"],
    "primitives": ["--steps", "2", "--state", "minus", "--emit-supports",
                   "--max-histories", "5"],
    "classify": ["--sites", "4", "--steps", "2", "--state", "standing", "--final", "3"],
    "compare": ["--state", "ground", "--with", "minus", "--final", "2", "--format", "text"],
    "report": ["--state", "standing", "--format", "json", "--out", "r.json"],
}


def _exit_output(capsys, parse, argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", sorted(REPRESENTATIVE_ARGVS))
def test_command_parser_parses_as_the_tree_does(capsys, command):
    assert set(REPRESENTATIVE_ARGVS) == set(qhopper.cli._COMMANDS)
    alone = qhopper.cli._parse_args
    tree = qhopper.cli._build_parser().parse_args
    argv = [command, *REPRESENTATIVE_ARGVS[command]]
    args = alone(argv)
    assert vars(args) == vars(tree(argv))
    assert args.command == command and args.func is qhopper.cli._COMMANDS[command][2]
    helps = [_exit_output(capsys, parse, [command, "--help"]) for parse in (alone, tree)]
    assert helps[0] == helps[1]
    code, usage, _ = helps[0]
    assert code == 0 and usage.startswith(f"usage: qhopper {command} [-h]")
    for option in REPRESENTATIVE_ARGVS[command]:
        assert not option.startswith("--") or option in usage
    bad = [_exit_output(capsys, parse, [command, "--format", "xml"]) for parse in (alone, tree)]
    assert bad[0] == bad[1]
    assert bad[0][0] == 1 and "invalid choice: 'xml'" in bad[0][2]


def _workload_argvs() -> list[list[str]]:
    """Every argv the paper and frontier workloads draw (seeded custom states
    for a few seeds), and the representative argvs."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    argvs = workloads.paper_universe()
    for seed in (1, 2, 3):
        argvs += [q["argv"] for w in ("paper", "frontier") for q in workloads.generate(w, seed)]
    points = workloads.FRONTIER_FIXED + workloads.FRONTIER_REACH
    argvs += [workloads.frontier_argv(*point) for point in points]
    argvs += [[command, *argv] for command, argv in REPRESENTATIVE_ARGVS.items()]
    return argvs


def test_workload_argvs_parse_from_the_option_table_without_argparse(monkeypatch):
    argvs = _workload_argvs()
    tree = qhopper.cli._build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    parse = qhopper.cli._parse_args
    mismatches = [argv for argv in argvs if vars(parse(argv)) != vars(tree.parse_args(argv))]
    assert mismatches == []
    assert built == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["preclusion", "--format", "xml"], 1),
        (["preclusion", "--sites", "x"], 1),
        (["preclusion", "--steps"], 1),
        (["preclusion", "--sites", "-1"], 1),
        (["compare", "--state", "plus"], 1),
        (["preclusion", "-h"], 0),
        (["preclusion", "--site", "3"], 0),
        (["preclusion", "--final=1"], 0),
    ],
)
def test_scan_leaves_help_abbreviations_and_errors_to_argparse(capsys, argv, code):
    assert qhopper.cli._scan(argv) is None
    assert main(argv) == code
    capsys.readouterr()


def _argparse_parse(argv: list[str]) -> argparse.Namespace:
    """The parse with argparse alone: the full command tree."""
    return qhopper.cli._build_parser().parse_args(argv)


def _exit_of(parse, argv) -> tuple:
    """Exit code (None when `parse` returns), stdout, stderr, and what
    `parse` returned."""
    out, err = io.StringIO(), io.StringIO()
    code, args = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


_OPTIONS = sorted({o.flag for _, table, _ in qhopper.cli._COMMANDS.values() for o in table})
_ODD_TOKENS = ["--site", "--st", "--emit", "--fo", "--w", "--max", "-h", "--help", "--x=y",
               "--sites=3", "--final=1", "--bogus", "-x", "--"]
_VALUES = ["3", "-1", "x", "", " 3", "xml", "all", "json", "csv", "plus", "minus", "0", "2"]
_INTS = ["3", "0", "2", " 3"]


def _well_formed(o) -> st.SearchStrategy:
    """`o` as a well-formed argv would give it."""
    if o.kind is None:
        return st.just((o.flag,))
    values = _INTS if o.kind is int else o.choices or [v for v in _VALUES if v[:1] != "-"]
    return st.tuples(st.just(o.flag), st.sampled_from(values))


_odd_group = st.tuples(
    st.sampled_from(_OPTIONS + _ODD_TOKENS), st.sampled_from(_VALUES + _ODD_TOKENS)
) | st.tuples(st.sampled_from(_OPTIONS + _ODD_TOKENS + _VALUES))


@st.composite
def _argvs(draw) -> list[str]:
    """A command (or not) with well-formed options of its own, and in about
    half the draws one odd group of tokens among them."""
    command = draw(st.sampled_from([*sorted(qhopper.cli._COMMANDS), "nosuch", "-h"]))
    table = qhopper.cli._COMMANDS.get(command, ("", (), None))[1]
    groups = draw(st.lists(st.sampled_from(table).flatmap(_well_formed), max_size=5)) if table else []
    if draw(st.booleans()):
        groups.insert(draw(st.integers(0, len(groups))), draw(_odd_group))
    return [command, *(token for g in groups for token in g)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_argvs())
def test_scan_declines_or_parses_as_argparse_does(argv):
    scanned = qhopper.cli._scan(argv)
    code, out, err, args = _exit_of(_argparse_parse, argv)
    if code is not None:
        assert scanned is None
        assert _exit_of(main, argv) == (None, out, err, code)
    elif scanned is not None:
        assert vars(scanned) == vars(args) == vars(qhopper.cli._build_parser().parse_args(argv))


def test_unrecognised_option_is_reported_with_the_top_level_usage(capsys):
    assert main(["preclusion", "--bogus", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: qhopper [-h]")
    assert err.endswith("qhopper: error: unrecognized arguments: --bogus 1\n")


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["-x"]])
def test_no_or_unknown_command_exits_one_with_top_level_usage(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: qhopper [-h]")


def test_infeasible_exits_two(capsys):
    assert main(["histories", "--sites", "3", "--steps", "20", "--final", "0"]) == 2
    capsys.readouterr()


def test_custom_state(capsys):
    code, data = run_json(
        capsys, "histories", "--sites", "3", "--steps", "1",
        "--state", "custom:2,-1,-1", "--final", "0",
    )
    assert code == 0
    counts = {c["value"]: c["count"] for c in data["classes"]}
    assert counts == {"2": 1, "-ω": 2}


def test_text_and_csv_formats(capsys):
    assert main(["model", "--sites", "2"]) == 0
    text = capsys.readouterr().out
    assert "unitary: True" in text
    assert main(["classify", "--sites", "3", "--steps", "2", "--state", "plus",
                 "--final", "0", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    header = csv_out.splitlines()[0]
    assert header.startswith("coevent_id,support,circulation,rest_profile")


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["preclusion", "--sites", "3", "--steps", "3", "--state", "ground",
                 "--final", "0", "--format", "json", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["precluded"] == 2017807
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["preclusion", "--state", "ground", "--format", "json"],
        ["primitives", "--state", "plus", "--format", "text", "--emit-supports"],
        ["classify", "--state", "plus", "--format", "csv"],
        ["preclusion", "--state", "plus", "--format", "csv"],
    ],
    ids=["json", "text", "csv-table", "csv-key-value"],
)
def test_out_file_holds_the_bytes_stdout_gets(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_report_checks_unitarity_once_per_lattice_size(capsys, monkeypatch):
    sizes = []
    check = qhopper.cli.check_unitarity
    monkeypatch.setattr(
        qhopper.cli, "check_unitarity", lambda spec: sizes.append(spec.n) or check(spec)
    )
    assert main(["report", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["criteria"]["unitarity_2_to_8"] is True
    assert sizes == list(range(2, 9))


def test_report_golden_mismatch_exits_four(capsys, monkeypatch):
    import qhopper.cli as cli

    broken = {"criteria": {"precluded_plus": 1}}
    monkeypatch.setattr(cli, "_load_golden", lambda: broken)
    code = main(["report", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4
    data = json.loads(captured.out)
    assert data["golden_comparison"]["pass"] is False
    assert "golden mismatch" in captured.err


def test_report_deterministic_across_threads(tmp_path):
    outputs = []
    for threads in ("1", "2", "8"):
        target = tmp_path / f"report_{threads}.json"
        code = main(["report", "--format", "json", "--threads", threads,
                     "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_model_refuses_large_lattice_before_building(monkeypatch, capsys):
    def build(spec):
        raise AssertionError(f"matrix built for {spec.n} sites")

    monkeypatch.setattr(qhopper.cli, "transfer_matrix", build)
    monkeypatch.setattr(qhopper.cli, "_is_unitary", build)
    start = time.perf_counter()
    assert main(["model", "--sites", "200"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "200 sites" in err and "unitarity-check guard of 32" in err

    def lattice(n, steps):
        raise AssertionError(f"lattice of {n} sites built")

    # a lattice builds a phase row of n entries, so none is built either
    monkeypatch.setattr(qhopper.cli, "LatticeSpec", lattice)
    assert main(["model", "--sites", str(10**12)]) == 2
    assert "model of 1000000000000 sites" in capsys.readouterr().err


def _count_calls(monkeypatch, fn) -> list:
    """Wrap `fn` wherever a qhopper module binds it; return the argument log."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    modules = [importlib.import_module(f"qhopper.{m}") for m in QHOPPER_MODULES]
    for mod in (qhopper, *modules):
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "extra, spaces, ensembles", [((), 7, 7), (("--state", "standing"), 8, 8)]
)
def test_report_builds_each_space_once(monkeypatch, capsys, extra, spaces, ensembles):
    qhopper.analysis.named_ensemble.cache_clear()
    histories = _count_calls(monkeypatch, qhopper.histories.enumerate_histories)
    profiles = _count_calls(monkeypatch, qhopper.coevents.primitive_profile)
    expanded = _count_calls(monkeypatch, qhopper.coevents.enumerate_primitive)
    assert main(["report", "--format", "json", *extra]) == 0
    capsys.readouterr()

    def key(spec, state, final=None):
        return spec, state.label, final

    built = [key(*args) for args in histories]
    dualised = [key(sp.spec, sp.state, sp.final) for (sp,) in profiles]
    assert len(built) == len(set(built)) == spaces
    assert len(dualised) == len(set(dualised)) == ensembles
    assert set(dualised) <= set(built)
    # every figure comes from the profiles; no ensemble is expanded
    assert expanded == []


@pytest.mark.parametrize(
    "argv, size",
    [
        (["compare", "--steps", "3", "--state", "ground", "--with", "plus",
          "--final", "0"], 27),
        (["report"], 27),
    ],
)
def test_max_histories_refuses_whatever_the_memo_holds(capsys, argv, size):
    assert main([*argv, "--format", "json"]) == 0  # fills the ensemble memo
    capsys.readouterr()
    assert main([*argv, "--max-histories", "10"]) == 2
    err = capsys.readouterr().err
    assert f"space of {size} histories exceeds the max_histories guard of 10" in err


def test_report_answers_at_the_fixed_final_size(capsys):
    # every space a (3,3) report analyses has 27 histories
    assert main(["report", "--format", "json"]) == 0
    default = capsys.readouterr().out
    assert main(["report", "--max-histories", "27", "--format", "json"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["criteria"]["histories_unrestricted"] == 81


def test_primitives_dualises_once(monkeypatch, capsys):
    dualised = _count_calls(monkeypatch, qhopper.coevents._dualise_maxima)
    assert main(["primitives", "--final", "0"]) == 0
    capsys.readouterr()
    assert len(dualised) == 1


@pytest.mark.parametrize("final, sectors", [("0", 1), ("all", 3)])
def test_preclusion_builds_each_sector_kernel_once(monkeypatch, capsys, final, sectors):
    kernels = _count_calls(monkeypatch, qhopper.measure._sector_kernel)
    assert main(["preclusion", "--state", "standing", "--final", final]) == 0
    capsys.readouterr()
    assert len(kernels) == sectors


@pytest.mark.parametrize(
    "argv",
    [["report"], ["compare", "--state", "ground", "--with", "plus", "--final", "0"]],
)
def test_max_histories_reaches_every_space_built(monkeypatch, capsys, argv):
    qhopper.analysis.named_ensemble.cache_clear()
    inner, received = qhopper.histories.enumerate_histories, []

    def wrapper(*args, **kwargs):
        received.append(kwargs.get("max_histories"))
        return inner(*args, **kwargs)

    modules = [importlib.import_module(f"qhopper.{m}") for m in QHOPPER_MODULES]
    for mod in (qhopper, *modules):
        for attr, value in list(vars(mod).items()):
            if value is inner:
                monkeypatch.setattr(mod, attr, wrapper)
    assert main([*argv, "--format", "json", "--max-histories", "100000000"]) == 0
    capsys.readouterr()
    assert received and set(received) == {100000000}


def test_preclusion_prints_counts_past_the_int_string_limit(capsys):
    # 5 921 digits, past the 4 300 that str(int) converts by default
    code, data = run_json(capsys, "preclusion", "--sites", "3", "--steps", "9",
                          "--state", "plus", "--final", "0")
    assert code == 0
    spec = LatticeSpec(3, 9)
    space = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    assert len(data["precluded"]) > 5000
    assert Decimal(data["precluded"]) == count_precluded(amplitude_classes(space))


@pytest.mark.parametrize("fmt, records", [("text", None), ("csv", None), ("csv", True)])
def test_emit_renders_integers_of_any_length(capsys, fmt, records):
    big = 7**6000  # 5 071 digits
    data = {"count": big}
    table = (("count", "pair"), [(big, (1, -big))])
    qhopper.cli._emit(argparse.Namespace(format=fmt, out=None), data,
                      table if records else None)
    out = capsys.readouterr().out
    assert str(Decimal(big)) in out
    if records:
        assert out.endswith(f",1 {Decimal(-big)}\n")


@pytest.mark.parametrize("rows", [[], [(3, [1, 2])]], ids=["empty", "one"])
def test_emit_csv_prints_the_table_header_then_rows_in_its_order(capsys, rows):
    table = (("a", "b"), rows)
    qhopper.cli._emit(argparse.Namespace(format="csv", out=None), {"count": 9}, table)
    assert capsys.readouterr().out == "a,b\n" + "".join("3,1 2\n" for _ in rows)


def test_huge_refusal_states_the_size_by_bit_length(capsys):
    # only listing the supports expands them
    assert main(["primitives", "--sites", "3", "--steps", "9", "--state", "plus",
                 "--final", "0", "--emit-supports"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert "expansion of 2^1088..2^1089 primitive supports" in err
    assert "max_supports guard of 1048576" in err


@pytest.mark.parametrize(
    "command, built", [("preclusion", 0), ("primitives", 0), ("histories", 27)]
)
def test_observable_tables_are_built_once_and_only_where_read(
    monkeypatch, capsys, command, built
):
    circulations = _count_calls(monkeypatch, qhopper.histories.circulation)
    rests = _count_calls(monkeypatch, qhopper.histories.rest_count)
    assert main([command, "--final", "0", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(circulations) == len(rests) == built


@pytest.mark.parametrize("fmt, built", [("text", 0), ("json", 0), ("csv", 1)])
def test_classify_builds_records_only_for_csv(monkeypatch, capsys, fmt, built):
    records = _count_calls(monkeypatch, qhopper.analysis.coevent_rows)
    assert main(["classify", "--final", "0", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(records) == built


def test_recorded_paper_outputs_replay_byte_identical(capsys):
    # the benchmark's recorded exit code and stdout digest of every argv the
    # paper workload can draw, every command in every format
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))["paper"]
    assert len(recorded) == 383
    assert {k.split()[0] for k in recorded} == {
        "classify", "compare", "histories", "preclusion", "primitives", "report",
    }
    mismatches = []
    for key, want in recorded.items():
        rc = main(key.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if (rc, digest) != (want["rc"], want["sha256"]):
            mismatches.append(key)
    assert mismatches == []


def test_recorded_frontier_outputs_replay_byte_identical(capsys):
    # the benchmark's fixed frontier points: preclusion's stdout digest and
    # the primitive count of the same space
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))["frontier"]
    assert len(recorded) == 6
    mismatches = []
    for key, want in recorded.items():
        argv = key.split()
        rc = main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        opt = dict(zip(argv[1::2], argv[2::2]))
        spec = LatticeSpec(int(opt["--sites"]), int(opt["--steps"]))
        space = enumerate_histories(spec, initial_state(spec, opt["--state"]), int(opt["--final"]))
        got = (rc, digest, str(count_primitive(space)))
        if got != (0, want["sha256"], want["primitive"]):
            mismatches.append(key)
    assert mismatches == []


@pytest.mark.parametrize(
    "where, reason",
    [("missing/x.json", errno.ENOENT), (".", errno.EISDIR)],
    ids=["missing-directory", "a-directory"],
)
def test_unwritable_out_exits_one_with_one_line(capsys, tmp_path, where, reason):
    path = tmp_path / where
    assert main(["primitives", "--final", "0", "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qhopper: error: cannot write {path}: {os.strerror(reason)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--state", "plus", "--final", "0"],
        ["compare", "--state", "ground", "--with", "plus", "--final", "0"],
        ["report"],
        ["primitives", "--state", "standing", "--final", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_four_step_ensembles_answer_without_expansion(capsys, argv):
    # (3,4) holds 13 884 156 primitive supports per plus, ground or minus final
    # site, past the max_supports guard; only listing them is refused
    code, data = run_json(capsys, *argv, "--sites", "3", "--steps", "4")
    assert code == 0
    spec = LatticeSpec(3, 4)

    def primitive(label):
        return count_primitive(enumerate_histories(spec, initial_state(spec, label), 0))

    if argv[0] == "classify":
        assert data["count"] == primitive("plus") == 13884156
        assert sum(data["restlessness"].values()) == data["count"]
        for tally in (*data["avoids_site"].values(), data["avoids_any_site"]):
            assert sum(tally.values()) == data["count"]
    elif argv[0] == "compare":
        assert data["counts"] == {"ground": primitive("ground"), "plus": primitive("plus")}
        assert len(data["common_supports"]) == data["overlap"]
    elif argv[0] == "report":
        criteria = data["criteria"]
        assert criteria["primitive_count_ground"] == primitive("ground")
        assert sum(criteria["restlessness_ground"].values()) == primitive("ground")
        assert criteria["ensemble_size_all_finals"] == 3 * primitive("ground")
        assert data["golden_comparison"] == {"checked": False}
    else:
        assert data["count"] == primitive("standing") == 1757570868
        assert sum(data["support_sizes"].values()) == data["count"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--format", "csv"],
        ["primitives", "--emit-supports"],
    ],
)
def test_four_step_listings_stay_refused(capsys, argv):
    assert main([*argv, "--sites", "3", "--steps", "4", "--final", "0"]) == 2
    err = capsys.readouterr().err
    assert "expansion of 13884156 primitive supports exceeds the max_supports guard" in err


CLASSIFY_CSV_HEADER = (
    "coevent_id,support,circulation,rest_profile,"
    "never_moves,never_rests,rests_exactly_once,circulates_positive_only\n"
)
# what each format prints for a zero count and an undefined average; csv
# prints the per-coevent records, here the header alone
EMPTY_ENSEMBLE_LINES = {
    "text": ("count: 0\n", "  average: None\n"),
    "json": ('"count": 0,', '"average": null,'),
    "csv": (CLASSIFY_CSV_HEADER,),
}


@pytest.mark.parametrize("fmt", sorted(EMPTY_ENSEMBLE_LINES))
def test_classify_answers_an_empty_ensemble(capsys, fmt):
    # the standing wave at (4,2) has no primitive coevent ending at site 1
    spec = LatticeSpec(4, 2)
    assert count_primitive(enumerate_histories(spec, initial_state(spec, "standing"), 1)) == 0
    argv = ["classify", "--sites", "4", "--steps", "2", "--state", "standing", "--final", "1"]
    assert main([*argv, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for line in EMPTY_ENSEMBLE_LINES[fmt]:
        assert line in out


@pytest.mark.parametrize(
    "argv, header",
    [
        (["classify"], CLASSIFY_CSV_HEADER),
        (["primitives", "--emit-supports"], "coevent_id,support\n"),
    ],
    ids=["classify", "primitives"],
)
def test_empty_ensemble_csv_keeps_the_records_header(capsys, argv, header):
    # a non-empty ensemble prints this header and one row per coevent
    assert main([*argv, "--sites", "4", "--steps", "2", "--state", "standing",
                 "--final", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == header


def _modules_after_import() -> set[str]:
    """Every module loaded once a fresh interpreter has run `import qhopper, qhopper.cli`."""
    src = str(Path(qhopper.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qhopper, qhopper.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_the_package_and_its_cli_load_no_numpy():
    assert "numpy" not in _modules_after_import()


def test_the_package_and_its_cli_load_no_dataclasses_or_inspect():
    # dataclasses imports inspect, and each decorator execs generated methods:
    # about half of what importing the package cost
    assert not {"dataclasses", "inspect"} & _modules_after_import()


def test_the_cli_loads_argparse_only_for_help_and_errors():
    # a well-formed argv is scanned from the option table; argparse and the
    # gettext it pulls in are imported where the full tree is built
    assert "argparse" not in _modules_after_import()
