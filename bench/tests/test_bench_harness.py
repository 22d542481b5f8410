"""Tests of the benchmark's own code: checker, generator, statistics, spans."""
from __future__ import annotations

import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import qhopper  # noqa: E402
from qhopper import (  # noqa: E402
    LatticeSpec,
    amplitude_classes,
    count_precluded,
    count_primitive,
    enumerate_histories,
    initial_state,
)


@pytest.mark.parametrize(
    "steps, state",
    [(3, s) for s in workloads.STATES] + [(4, s) for s in ("ground", "plus", "minus")],
)
def test_checker_agrees_with_count_precluded(steps, state):
    spec = LatticeSpec(3, steps)
    space = enumerate_histories(spec, initial_state(spec, state), 0)
    verdict = checker.check(3, steps, state)
    assert verdict.precluded == count_precluded(amplitude_classes(space))
    assert verdict.primitive == count_primitive(space)


def test_checker_keeps_zero_amplitude_class():
    # the standing wave vanishes on site 1 of four; those histories are
    # a zero class that doubles every precluded count per member
    cl = checker.classes(4, 2, "standing")
    assert (0,) * 4 in cl.vectors
    spec = LatticeSpec(4, 2)
    space = enumerate_histories(spec, initial_state(spec, "standing"), 0)
    assert checker.check(4, 2, "standing").precluded == count_precluded(
        amplitude_classes(space)
    )


def test_checker_canonical_uses_cyclotomic_remainder():
    # 1 + z + z^2 vanishes for z a primitive cube root of unity
    assert checker.canonical((1, 1, 1)) == (0, 0)
    # z^2 = -1 - z modulo Phi_3
    assert checker.canonical((0, 0, 1)) == (-1, -1)


def test_custom_states_are_deterministic_per_seed():
    a = workloads.custom_states(random.Random("frontier:7"))
    b = workloads.custom_states(random.Random("frontier:7"))
    assert a == b
    assert len(a) == len(workloads.CUSTOM_PATTERNS)


@pytest.mark.parametrize("seed", range(20))
def test_custom_states_stay_within_the_guard(seed):
    for state in workloads.custom_states(random.Random(seed)):
        cl = checker.classes(3, 3, state)
        assert cl.box <= workloads.BOX_GUARD
        assert len(cl.counts) == workloads.CUSTOM_CLASSES


def test_generated_queries_are_deterministic():
    for name in run.WORKLOADS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)


def test_paper_queries_have_recorded_answers():
    recorded = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["paper"]
    universe = {" ".join(argv) for argv in workloads.paper_universe()}
    assert universe == set(recorded)
    for seed in range(10):
        for q in workloads.generate("paper", seed):
            assert q["key"] in recorded
            assert q["key"] == " ".join(workloads.strip_threads(q["argv"]))


@pytest.mark.parametrize(
    "n, expected",
    [(100, 90), (84, 88), (56, 82), (28, 64), (20, 50), (19, None), (10, None), (0, None)],
)
def test_tail_percentile_rule(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_reports_value_percentile_and_count():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    assert run.tail(values) == {"value": 90.0, "percentile": 90, "samples": 100}
    assert run.tail(values[:10]) is None


def test_self_time_of_nested_spans():
    # root 0..10 with children 1..3 and 2..6 (overlapping) and 8..9;
    # the child 2..6 has its own child 4..5
    recorded = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 2.0, 6.0, 0, 2],
        ["c", 4.0, 5.0, 2, 2],
        ["d", 8.0, 9.0, 0, 1],
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_tracer_nests_spans_and_parents_pool_threads():
    tracer = spans.Tracer()

    def leaf():
        sid = tracer.open("leaf")
        time.sleep(0.01)
        tracer.close(sid)

    root = tracer.open("root")
    leaf()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for f in [pool.submit(leaf) for _ in range(2)]:
            f.result()
    tracer.close(root)
    recorded = tracer.export()["spans"]
    assert [s[0] for s in recorded] == ["root", "leaf", "leaf", "leaf"]
    assert all(s[3] == 0 for s in recorded[1:])
    assert any(s[4] != threading.get_ident() for s in recorded[1:])
    selfs = spans.self_times(recorded)
    assert 0 <= selfs[0] < recorded[0][2] - recorded[0][1]


def test_tracer_install_wraps_consumers_and_uninstall_restores():
    original = qhopper.coevents.enumerate_primitive
    tracer = spans.Tracer()
    tracer.install(qhopper)
    try:
        assert qhopper.cli.enumerate_primitive is not original
        assert qhopper.analysis.enumerate_primitive is qhopper.cli.enumerate_primitive
        spec = LatticeSpec(3, 2)
        space = qhopper.enumerate_histories(spec, initial_state(spec, "plus"), 0)
        assert qhopper.cli.enumerate_primitive(space) == original(space)
    finally:
        tracer.uninstall()
    assert qhopper.cli.enumerate_primitive is original
    assert qhopper.coevents.enumerate_primitive is original
    names = [s[0] for s in tracer.export()["spans"]]
    assert names.count("coevents.enumerate") == 1
    assert "coevents.minimal" in names
    assert tracer.export()["counters"]["histories.distinct_spaces"] == 1


def _record(qid, query_s, *, reach=False, outcome="answered", kind="cli"):
    query = {"id": qid, "key": f"q{qid}", "kind": kind, "reach": reach}
    return {"query": query, "query_s": query_s, "t1": 1.0, "setup_s": 0.2,
            "maxrss_kb": 2048, "outcome": outcome, "note": ""}


def test_summary_reports_every_declared_end_to_end_metric():
    passes = [
        {"traced": False, "records": [_record(0, 1.0), _record(1, 3.0),
                                       _record(2, 9.0, reach=True, outcome="refused")]},
        {"traced": False, "records": [_record(0, 2.0), _record(1, 5.0),
                                       _record(2, 9.0, reach=True, outcome="refused")]},
    ]
    res = run.summarise("frontier", 1, passes, trace=False)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(res["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert res["metrics"][m["name"]][1] == m["unit"]
    # per-query medians summed; the reach point is left out
    assert res["metrics"]["wall_s"][0] == pytest.approx(1.5 + 4.0)
    assert res["detail"]["query_s.p50"] == pytest.approx(2.5)
    assert res["metrics"]["answered_frac"][0] == pytest.approx(4 / 6)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 6, 0)


def test_declared_per_layer_metrics_match_the_traced_output():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]}
    produced = (set(run.SELF_TIME) | set(run.CALLS) | set(run.COUNTERS)
                | set(run.MAX_COUNTERS) | set(run.DERIVED))
    assert names == produced
    for m in declared["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]


def test_no_query_starts_after_the_deadline():
    res = run.run_query({"budget_s": 10.0}, False, time.perf_counter() - 1.0, {})
    assert res["outcome"] == "timeout"
