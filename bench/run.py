"""qhopper benchmark: one closed-loop client, one fresh worker process per query.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): `paper`, `frontier`, `oracle`, or `all`
to run the three in turn.  The queries come from `--seed`; the program
only ever sees the generated queries.  Rounds over the workload's query
list repeat, each in a fresh seeded order, until `--seconds` have gone.
With `--trace 1`, each query also runs once traced next to its untraced
run; per-layer metrics come from the traced runs and the difference in
wall time is the tracing overhead.

Every answer is checked (seed-recorded digests, the golden report, the
independent checker, brute force against fast path).  The last stdout
line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 0 only when every answer checked.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("paper", "frontier", "oracle")
HARD_LIMIT_S = 150.0  # no query starts or runs past this, whatever --seconds says
TAIL_BEYOND = 10
WALK_SUBSETS = 1 << 27
REFUSED = 2  # the CLI's exit code for an infeasible size
MIN_ROUNDS = 2  # untraced, so every query's median has more than one sample

sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics: self time summed over these span names
SELF_TIME = {
    "histories.enumerate_s": ("histories.enumerate",),
    "histories.classes_s": ("histories.classes",),
    "measure.tables_s": ("measure.tables", "measure.box_walk", "measure.maxima"),
    "measure.count_s": ("measure.count", "measure.count_bruteforce", "measure.maximal"),
    "coevents.minimal_s": ("coevents.minimal", "coevents.count_primitive"),
    "coevents.expand_s": ("coevents.enumerate",),
    "coevents.bruteforce_s": ("coevents.bruteforce",),
    "subsetwalk.walk_s": ("subsetwalk.walk",),
    "subsetwalk.zero_sum_s": ("subsetwalk.zero_sum",),
    "analysis.symmetry_s": ("analysis.symmetry",),
    "analysis.discrimination_s": ("analysis.discrimination",),
    "analysis.statistics_s": ("analysis.statistics",),
    "model.unitarity_s": ("model.unitarity",),
    "cli.self_s": ("cli.main",),
}
CALLS = {
    "histories.enumerate_calls": "histories.enumerate",
    "measure.tables_calls": "measure.tables",
    "coevents.minimal_calls": "coevents.minimal",
    "coevents.enumerate_calls": "coevents.enumerate",
}
COUNTERS = (
    "histories.distinct_spaces", "histories.histories", "histories.classes",
    "measure.box_points", "measure.zero_vectors", "measure.maximal_vectors",
    "coevents.minimal_vectors", "coevents.supports", "subsetwalk.subsets",
    "subsetwalk.bytes_computed", "analysis.coevents_scanned",
    "cyclotomic.canonical_hits", "cyclotomic.canonical_misses",
)
MAX_COUNTERS = ("measure.guard_ratio", "subsetwalk.threads")
DERIVED = ("cli.output_bytes", "measure.zero_yield", "trace.overhead_s", "trace.overhead_frac")


# -- statistics ------------------------------------------------------------------


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Highest whole percentile, 50 to 99, whose nearest-rank value has at
    least `beyond` of the n samples above it; None when there is none."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def tail(values: list[float]) -> dict | None:
    p = tail_percentile(len(values))
    if p is None:
        return None
    rank = math.ceil(p * len(values) / 100)
    return {"value": sorted(values)[rank - 1], "percentile": p, "samples": len(values)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- machine facts ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    llc_level, llc = 0, "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.exists() else ():
        level = int(_read(str(index / "level")) or 0)
        if level >= llc_level:
            llc_level, llc = level, _read(str(index / "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc": f"L{llc_level} {llc}" if llc_level else llc,
    }


# -- running queries -------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COEVENT_MAX_SUBSETS", None)  # the program's defaults, not the caller's
    return env


def run_query(query: dict, traced: bool, deadline: float, env: dict) -> dict:
    budget = min(query["budget_s"], deadline - time.perf_counter())
    if budget <= 0:
        return {"outcome": "timeout", "query_s": 0.0, "note": "run out of time before it started"}
    request = json.dumps(dict(query, trace=traced))
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=request, text=True,
            capture_output=True, timeout=budget, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "query_s": budget, "note": f"over {budget:.0f} s"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"outcome": "error", "query_s": time.perf_counter() - spawn,
                "note": (proc.stderr or proc.stdout)[-500:]}
    result["setup_s"] = result["ready"] - spawn
    result["query_s"] = result["t1"] - result["t0"]
    return result


class Judge:
    """Decides each query's outcome against the recorded and checked answers."""

    def __init__(self) -> None:
        self.expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        self._verdicts: dict[tuple, checker.Verdict] = {}

    def verdict(self, n: int, steps: int, state: str, final: int = 0) -> checker.Verdict:
        key = (n, steps, state, final)
        if key not in self._verdicts:
            self._verdicts[key] = checker.check(n, steps, state, final)
        return self._verdicts[key]

    def judge(self, query: dict, result: dict) -> tuple[str, str]:
        try:
            return self._judge(query, result)
        except Exception as exc:  # a malformed answer fails the query, not the run
            return "error", f"{type(exc).__name__}: {exc}"

    def _judge(self, query: dict, result: dict) -> tuple[str, str]:
        if result.get("outcome") in ("timeout", "error"):
            return result["outcome"], result.get("note", "")
        rc = result.get("rc")
        if rc is None:
            return "error", result.get("error", "")
        kind = query["kind"]
        if kind == "cli":
            return self._paper(query, result)
        if rc == REFUSED:
            return ("refused", "") if query["reach"] else ("wrong", "refused a seed-answered query")
        if kind == "frontier":
            return self._frontier(query, result)
        if kind == "walk":
            n, steps, state, final = query["point"]
            truth = self.verdict(n, steps, state, final).precluded
            ok = int(result["brute"]) == int(result["fast"]) == truth
            return ("answered", "") if ok else ("wrong", f"brute {result['brute']} fast {result['fast']} checker {truth}")
        if kind == "primitive_bruteforce":
            n, steps, state, final = query["point"]
            truth = self.verdict(n, steps, state, final).primitive
            ok = result["brute"] == result["fast"] and len(result["brute"]) == truth
            return ("answered", "") if ok else ("wrong", "brute force and fast path disagree")
        return "error", f"unknown kind {kind}"

    def _paper(self, query: dict, result: dict) -> tuple[str, str]:
        exp = self.expected["paper"].get(query["key"])
        if exp is None:
            return "error", "no recorded expectation"
        if result["rc"] != exp["rc"] or result["sha256"] != exp["sha256"]:
            return "wrong", f"rc {result['rc']} / output differs from the seed's"
        if query["argv"][0] == "report":
            golden = json.loads(result["out"]).get("golden_comparison", {})
            if golden.get("checked") and not golden.get("pass"):
                return "wrong", "golden mismatch"
        return "answered", ""

    def _frontier(self, query: dict, result: dict) -> tuple[str, str]:
        if result["rc"] != 0:
            return "wrong", f"exit code {result['rc']}"
        n, steps, state = query["point"]
        truth = self.verdict(n, steps, state)
        precluded = int(json.loads(result["out"])["precluded"])
        primitive = int(result["primitive"])
        if (precluded, primitive) != (truth.precluded, truth.primitive):
            return "wrong", f"precluded {precluded} primitive {primitive} != checker"
        exp = self.expected["frontier"].get(query["key"])
        if exp is not None and (result["sha256"], str(primitive)) != (exp["sha256"], exp["primitive"]):
            return "wrong", "differs from the seed's recorded answer"
        return "answered", ""


# -- one workload ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat rounds over the query list until `seconds` have gone.

    A round is one untraced pass; with `trace`, every query also runs
    traced right before or after its untraced run (seeded), so the two
    see the same machine speed and their difference is the overhead.
    """
    queries = workloads.generate(name, seed)
    order_rng = random.Random(f"order:{name}:{seed}")
    judge = Judge()
    env = worker_env()
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    passes: list[dict] = []
    rounds, min_rounds = 0, 1 if trace else MIN_ROUNDS
    while True:
        order = list(queries)
        order_rng.shuffle(order)
        records: dict[bool, list[dict]] = {False: [], True: []}
        for q in order:
            modes = [False, True] if trace else [False]
            if trace and order_rng.random() < 0.5:
                modes.reverse()
            for traced in modes:
                res = run_query(q, traced, deadline, env)
                res["outcome"], res["note"] = judge.judge(q, res)
                res["query"] = q
                records[traced].append(res)
        passes.append({"traced": False, "records": records[False]})
        if trace:
            passes.append({"traced": True, "records": records[True]})
        rounds += 1
        now = time.perf_counter()
        if (now - start >= seconds and rounds >= min_rounds) or now >= deadline:
            break
    return summarise(name, seed, passes, trace)


def pass_wall(records: list[dict]) -> float:
    """Summed query time of the queries the seed answers (reach points excluded)."""
    return sum(r["query_s"] for r in records if not r["query"]["reach"])


def wall(passes: list[dict]) -> float:
    """Workload wall time: each query's median over the passes, summed."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            if not r["query"]["reach"]:
                times.setdefault(r["query"]["id"], []).append(r["query_s"])
    return sum(median(t) for t in times.values())


def summarise(name: str, seed: int, passes: list[dict], trace: bool) -> dict:
    records = [r for p in passes for r in p["records"]]
    outcomes = {k: 0 for k in ("answered", "refused", "wrong", "error", "timeout")}
    for r in records:
        outcomes[r["outcome"]] += 1
    problems = [f"{r['query']['key']}: {r['outcome']} {r['note']}".strip()
                for r in records if r["outcome"] in ("wrong", "error", "timeout")]
    plain = [p for p in passes if not p["traced"]]
    plain_records = [r for p in plain for r in p["records"]]
    timed = [r["query_s"] for r in plain_records
             if not r["query"]["reach"] and "t1" in r]
    metrics = {
        "setup_s": (median([r["setup_s"] for r in records if "setup_s" in r]), "s"),
        "wall_s": (wall(plain), "s"),
        "answered_frac": (outcomes["answered"] / len(records), "fraction"),
        "peak_rss_mb": (max((r.get("maxrss_kb", 0) for r in records), default=0) / 1024, "MB"),
    }
    detail: dict = {
        "workload": name, "seed": seed, "passes": len(plain),
        "traced_passes": sum(p["traced"] for p in passes),
        "queries_per_pass": len(passes[0]["records"]), "samples": len(timed),
        "pass_wall_s": [round(pass_wall(p["records"]), 4) for p in passes],
        "outcomes": outcomes, "problems": problems[:20],
        "query_s.p50": median(timed), "query_s.tail": tail(timed),
        "reach": {r["query"]["key"]: [r["outcome"], round(r["query_s"], 4)]
                  for r in plain_records if r["query"]["reach"]},
    }
    walks = {}
    for r in plain_records:
        if r["query"]["kind"] == "walk" and r.get("walk_s"):
            walks.setdefault(r["query"]["threads"], []).append(WALK_SUBSETS / r["walk_s"])
    for threads, rates in sorted(walks.items()):
        detail[f"walk_subsets_per_s.t{threads}"] = median(rates)
    layer = per_layer(passes) if trace else None
    if layer is not None:
        detail["calls_by_query"] = layer.pop("_calls_by_query")
        write_trace(name, seed, passes)
    failed = outcomes["wrong"] + outcomes["error"] + outcomes["timeout"]
    return {"metrics": metrics, "layer": layer, "detail": detail,
            "correct": failed == 0, "attempted": len(records), "failed": failed}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass: list[dict] = []
    calls_by_query: dict = {}
    for p in traced:
        agg = {k: 0.0 for k in list(SELF_TIME) + list(CALLS) + list(COUNTERS) + list(MAX_COUNTERS)}
        agg["cli.output_bytes"] = 0
        for r in p["records"]:
            agg["cli.output_bytes"] += r.get("out_bytes", 0)
            tr = r.get("trace")
            if not tr:
                continue
            selfs = spans.self_times(tr["spans"])
            calls: dict[str, int] = {}
            for s, self_s in zip(tr["spans"], selfs):
                calls[s[0]] = calls.get(s[0], 0) + 1
                for metric, names in SELF_TIME.items():
                    if s[0] in names:
                        agg[metric] += self_s
            for metric, span_name in CALLS.items():
                agg[metric] += calls.get(span_name, 0)
            counters = tr["counters"]
            for key in COUNTERS:
                agg[key] += counters.get(key, 0)
            for key in MAX_COUNTERS:
                agg[key] = max(agg[key], counters.get(key, 0))
            calls_by_query.setdefault(r["query"]["key"], calls)
        agg["measure.zero_yield"] = (
            agg["measure.zero_vectors"] / agg["measure.box_points"]
            if agg["measure.box_points"] else 0.0
        )
        per_pass.append(agg)
    out = {k: median([a[k] for a in per_pass]) for k in per_pass[0]}
    traced_wall, plain_wall = wall(traced), wall(plain)
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
    out["_calls_by_query"] = calls_by_query
    return out


def write_trace(name: str, seed: int, passes: list[dict]) -> None:
    """All spans of the run, written once at the end."""
    OUT_DIR.mkdir(exist_ok=True)
    dump = [
        {"pass": i, "query": r["query"]["key"], "trace": r.get("trace")}
        for i, p in enumerate(passes) if p["traced"] for r in p["records"]
    ]
    (OUT_DIR / f"trace-{name}-{seed}.json").write_text(json.dumps(dump), encoding="utf-8")


# -- output ---------------------------------------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("_yield", "_ratio", "_frac")):
        return "ratio"
    return "count"


def print_human(res: dict) -> None:
    d = res["detail"]
    print(f"== {d['workload']} seed {d['seed']}: {d['passes']} passes, "
          f"{res['attempted']} queries, outcomes {d['outcomes']}")
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key:<28} {value:.6g} {unit}")
    print(f"  {'query_s.p50':<28} {d['query_s.p50']:.6g} s ({d['samples']} samples)")
    if d["query_s.tail"]:
        t = d["query_s.tail"]
        print(f"  {'query_s.tail':<28} {t['value']:.6g} s (p{t['percentile']} of {t['samples']})")
    for key in sorted(k for k in d if k.startswith("walk_subsets_per_s")):
        print(f"  {key:<28} {d[key]:.6g} 1/s")
    for problem in d["problems"]:
        print(f"  FAILED {problem}")
    if res["layer"]:
        for key, value in sorted(res["layer"].items()):
            print(f"  {key:<28} {value:.6g} {layer_unit(key)}")


def result_line(res: dict, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def build() -> None:
    """Byte-compile the program so no worker pays for compiling it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhopper" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2
    build()
    facts = machine_facts()
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["detail"]["machine"] = facts
        print_human(res)
        print(json.dumps({"detail": res["detail"]}))
        print(result_line(res, bool(args.trace)))
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
