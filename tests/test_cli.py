from __future__ import annotations

import argparse
import importlib
import json
import time
from decimal import Decimal

import pytest

import qhopper
from qhopper import (
    LatticeSpec,
    amplitude_classes,
    count_precluded,
    enumerate_histories,
    initial_state,
)
from qhopper.cli import main

QHOPPER_MODULES = (
    "analysis", "cli", "coevents", "histories", "measure", "model", "subsetwalk",
)


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


def test_report_standing_flagged(capsys):
    code, data = run_json(capsys, "report", "--state", "standing")
    assert code == 0
    assert data["standing"]["unverified_by_paper"] is True
    assert data["standing"]["primitive_count"] > 0


def test_usage_errors_exit_one(capsys):
    assert main(["model", "--sites", "1"]) == 1
    assert main(["primitives", "--final", "all"]) == 1
    assert main(["histories", "--state", "excited"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


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
    monkeypatch.setattr(qhopper.cli, "check_unitarity", build)
    start = time.perf_counter()
    assert main(["model", "--sites", "200"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "200 sites" in err and "unitarity-check guard of 32" in err


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
    "extra, spaces, ensembles", [((), 8, 7), (("--state", "standing"), 9, 8)]
)
def test_report_builds_each_space_once(monkeypatch, capsys, extra, spaces, ensembles):
    qhopper.analysis.named_ensemble.cache_clear()
    histories = _count_calls(monkeypatch, qhopper.histories.enumerate_histories)
    primitive = _count_calls(monkeypatch, qhopper.coevents.enumerate_primitive)
    assert main(["report", "--format", "json", *extra]) == 0
    capsys.readouterr()

    def key(spec, state, final=None):
        return spec, state.label, final

    built = [key(*args) for args in histories]
    expanded = [key(sp.spec, sp.state, sp.final) for (sp,) in primitive]
    assert len(built) == len(set(built)) == spaces
    assert len(expanded) == len(set(expanded)) == ensembles
    assert set(expanded) <= set(built)


@pytest.mark.parametrize(
    "argv, size",
    [
        (["compare", "--steps", "3", "--state", "ground", "--with", "plus",
          "--final", "0"], 27),
        (["report"], 81),
    ],
)
def test_max_histories_refuses_whatever_the_memo_holds(capsys, argv, size):
    assert main([*argv, "--format", "json"]) == 0  # fills the ensemble memo
    capsys.readouterr()
    assert main([*argv, "--max-histories", "10"]) == 2
    err = capsys.readouterr().err
    assert f"space of {size} histories exceeds the max_histories guard of 10" in err


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
    qhopper.cli._emit(argparse.Namespace(format=fmt, out=None), data,
                      [data] if records else None)
    assert str(Decimal(big)) in capsys.readouterr().out


def test_huge_refusal_states_the_size_by_bit_length(capsys):
    assert main(["primitives", "--sites", "3", "--steps", "9", "--state", "plus",
                 "--final", "0"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert "expansion of 2^1088..2^1089 primitive supports" in err
    assert "max_supports guard of 1048576" in err
