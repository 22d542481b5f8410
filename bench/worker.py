"""Run one benchmark query in a fresh interpreter.

Reads a query (see workloads.py) as JSON on stdin and prints one JSON
result on stdout.  `ready` is the monotonic clock once `import qhopper`
is done, so the parent can time interpreter start plus import; the query
itself is timed from `t0` to `t1`.  Run with `src` on PYTHONPATH.
"""
import time

import qhopper

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from qhopper import cli, coevents, cyclotomic, histories, measure, model  # noqa: E402
from qhopper.errors import InfeasibleSizeError  # noqa: E402

REFUSED = 2  # the CLI's exit code for an infeasible size


def parse_state(spec, text: str):
    """A named state, or `custom:` terms (integer, or exponent:coefficient)."""
    if not text.startswith("custom:"):
        return model.initial_state(spec, text)
    amps = []
    for term in text[len("custom:"):].split(","):
        if ":" in term:
            e, c = term.split(":")
            amps.append(cyclotomic.root(spec.n, int(e)) * int(c))
        else:
            amps.append(cyclotomic.CycInt.from_int(int(term), spec.n))
    return model.initial_state(spec, "custom", tuple(amps))


def space_of(point):
    n, steps, state = point[:3]
    final = point[3] if len(point) > 3 else 0
    spec = model.LatticeSpec(n, steps)
    return histories.enumerate_histories(spec, parse_state(spec, state), final)


def run_cli(argv, tracer, result) -> int:
    buf = io.StringIO()
    sid = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        if tracer:
            tracer.close(sid)
    out = buf.getvalue().encode("utf-8")
    result["out"] = out.decode("utf-8")
    result["out_bytes"] = len(out)
    result["sha256"] = hashlib.sha256(out).hexdigest()
    return rc


def run_query(query: dict, tracer=None) -> dict:
    """Execute one query; returns rc, timings and the values to check."""
    result: dict = {}
    kind = query["kind"]
    t0 = time.perf_counter()
    try:
        if kind == "cli":
            rc = run_cli(query["argv"], tracer, result)
        elif kind == "frontier":
            rc = run_cli(query["argv"], tracer, result)
            if rc == 0:
                result["primitive"] = str(coevents.count_primitive(space_of(query["point"])))
        elif kind == "walk":
            space = space_of(query["point"])
            with timed_walks(result):
                brute = measure.count_precluded_bruteforce(space, threads=query["threads"])
            result["brute"] = str(brute)
            rc = 0
        elif kind == "primitive_bruteforce":
            brute = coevents.enumerate_primitive_bruteforce(space_of(query["point"]))
            result["brute"] = sorted(phi.indices() for phi in brute)
            rc = 0
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    except InfeasibleSizeError as exc:
        rc = REFUSED
        result["error"] = f"infeasible: {exc}"
    except Exception:
        rc = None
        result["error"] = traceback.format_exc(limit=5)
    result["t0"], result["t1"] = t0, time.perf_counter()
    result["rc"] = rc
    return result


@contextlib.contextmanager
def timed_walks(result: dict):
    """Time the Gray-code walk inside the brute force into result["walk_s"]."""
    inner = measure.walk_count_table
    result["walk_s"] = 0.0

    def timed_walk(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            result["walk_s"] += time.perf_counter() - start

    measure.walk_count_table = timed_walk
    try:
        yield
    finally:
        measure.walk_count_table = inner


def fast_paths(query: dict, result: dict) -> None:
    """After timing: the fast path each oracle query is compared with."""
    if result.get("rc") != 0:
        return
    if query["kind"] == "walk":
        space = space_of(query["point"])
        result["fast"] = str(measure.count_precluded(histories.amplitude_classes(space)))
    elif query["kind"] == "primitive_bruteforce":
        fast = coevents.enumerate_primitive(space_of(query["point"]))
        result["fast"] = sorted(phi.indices() for phi in fast)


def main() -> None:
    query = json.loads(sys.stdin.read())
    tracer = None
    if query.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install(qhopper)
    memo = getattr(cyclotomic, "_phi_remainder", None)
    before = memo.cache_info() if memo else None
    result = run_query(query, tracer)
    if tracer:
        after = memo.cache_info() if memo else None
        tracer.uninstall()
        result["trace"] = tracer.export()
        if before and after:
            result["trace"]["counters"]["cyclotomic.canonical_hits"] = after.hits - before.hits
            result["trace"]["counters"]["cyclotomic.canonical_misses"] = (
                after.misses - before.misses
            )
    fast_paths(query, result)
    result["ready"] = READY
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
