"""Figures 8–11 as tables — time + communication for the five engines.

    spark-submit jobs/perf_comparison.py [dataset] [tiny|lite] [budget_mb] [out_dir]

Runs RADS, PSgL, TwinTwig, SEED and Crystal over the query set on one
dataset and writes the comparison rows to ``perf_<dataset>.json``; the
Crystal index goes under ``<out_dir>/crystal_index/``. A per-machine
memory budget (MB) simulates the paper's OOM failures.
"""
import os
import sys

from _session import RESULTS, get_session, save_rows  # first: puts src/ on the path
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


def main(spark, dataset: str, scale: str = "lite", budget_mb: float | None = 128,
         out_dir: str = RESULTS, m: int = 10) -> list[dict]:
    gc = make_context(spark, dataset, scale, m=m)
    queries = {q: QUERIES[q] for q in DATASET_QUERIES[dataset]}
    budget = int(budget_mb * 1e6) if budget_mb else None
    index = build_clique_index(gc, os.path.join(out_dir, "crystal_index", gc.name))
    rows = perf_rows(gc, queries, bytes_budget=budget, crystal_index=index)
    print_rows(rows, f"Performance comparison on {gc.name} (budget={budget_mb}MB)")
    save_rows(f"perf_{dataset}", rows, out_dir)
    gc.unpersist()
    return rows


if __name__ == "__main__":
    ds = sys.argv[1] if len(sys.argv) > 1 else "dblp"
    sc = sys.argv[2] if len(sys.argv) > 2 else "lite"
    bm = float(sys.argv[3]) if len(sys.argv) > 3 else 128.0
    main(get_session("perf"), ds, sc, bm, *sys.argv[4:5])
