"""Figures 8–11 as tables — time + communication for the five engines.

    spark-submit jobs/perf_comparison.py [dataset] [tiny|lite] [budget_mb]

Runs RADS, PSgL, TwinTwig, SEED and Crystal over the query set on one
dataset and prints the comparison rows (EXPERIMENTS.md records them).
A per-machine memory budget (MB) simulates the paper's OOM failures.
"""
import json
import os
import sys

from _session import get_session  # first: puts src/ on the path
from repro.baselines.crystal import build_clique_index
from repro.graphs.datasets import make_context
from repro.query.queries import QUERIES
from repro.tables import perf_rows, print_rows

#: queries per dataset — dense graphs get the subset that stays within
#: laptop wall time, mirroring which queries the paper could still run
DATASET_QUERIES = {
    "roadnet": list(QUERIES),
    "dblp": list(QUERIES),
    "livejournal": ["q1", "q2", "q4", "q5", "q6"],
    "uk2002": ["q1", "q2", "q4", "q6"],
}


def main(spark, dataset: str, scale: str = "lite", budget_mb: float | None = 256,
         m: int = 10, out_json: str | None = None) -> list[dict]:
    gc = make_context(spark, dataset, scale, m=m)
    queries = {q: QUERIES[q] for q in DATASET_QUERIES[dataset]}
    budget = int(budget_mb * 1e6) if budget_mb else None
    index = build_clique_index(gc, f"results/crystal_index/{gc.name}")
    rows = perf_rows(gc, queries, bytes_budget=budget, crystal_index=index)
    print_rows(rows, f"Performance comparison on {gc.name} (budget={budget_mb}MB)")
    if out_json:
        os.makedirs(os.path.dirname(out_json), exist_ok=True)
        with open(out_json, "w") as f:
            json.dump(rows, f, indent=1)
    gc.unpersist()
    return rows


if __name__ == "__main__":
    ds = sys.argv[1] if len(sys.argv) > 1 else "dblp"
    sc = sys.argv[2] if len(sys.argv) > 2 else "lite"
    bm = float(sys.argv[3]) if len(sys.argv) > 3 else 256.0
    main(get_session("perf"), ds, sc, bm, out_json=f"results/perf_{ds}_{sc}.json")
