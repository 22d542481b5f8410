"""Record the seed's answers that the benchmark compares against.

    PYTHONPATH=src python3 bench/record.py

Writes bench/expected.json: for every query the `paper` workload can
draw, its exit code and output digest; for every fixed `frontier` point,
its output digest and primitive count.  Run it only on the commit whose
answers are the reference.
"""
from __future__ import annotations

import json
from pathlib import Path

import worker
import workloads


def record(query: dict) -> dict:
    res = worker.run_query(query)
    if res["rc"] not in (0, 1, 2):
        raise RuntimeError(f"{query['key']}: {res.get('error')}")
    return res


def main() -> None:
    paper = {}
    for argv in workloads.paper_universe():
        res = record({"kind": "cli", "argv": argv})
        paper[" ".join(argv)] = {"rc": res["rc"], "sha256": res["sha256"]}
    frontier = {}
    for n, steps, state in workloads.FRONTIER_FIXED:
        argv = workloads.frontier_argv(n, steps, state)
        res = record({"kind": "frontier", "argv": argv, "point": [n, steps, state]})
        frontier[" ".join(argv)] = {"sha256": res["sha256"], "primitive": res["primitive"]}
    out = Path(__file__).with_name("expected.json")
    out.write_text(json.dumps({"paper": paper, "frontier": frontier}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"recorded {len(paper)} paper and {len(frontier)} frontier answers in {out}")


if __name__ == "__main__":
    main()
