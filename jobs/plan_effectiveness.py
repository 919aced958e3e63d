"""Appendix C.2 — execution-plan effectiveness: RADS's optimized plan
vs RanS (random star decomposition) and RanM (random minimum-round).

    spark-submit jobs/plan_effectiveness.py [dataset] [tiny|lite] [out_dir]

Writes ``plan_effect_<dataset>.json``.
"""
import sys

from _session import RESULTS, get_session, save_rows  # first: puts src/ on the path
from repro.graphs.datasets import make_context
from repro.tables import plan_effectiveness_rows, print_rows


def main(spark, dataset: str = "dblp", scale: str = "lite", out_dir: str = RESULTS,
         m: int = 10) -> list[dict]:
    gc = make_context(spark, dataset, scale, m=m)
    rows = plan_effectiveness_rows(gc)
    print_rows(rows, f"Plan effectiveness on {gc.name} (Appendix C.2)")
    save_rows(f"plan_effect_{dataset}", rows, out_dir)
    gc.unpersist()
    return rows


if __name__ == "__main__":
    main(get_session("plan-effect"), *sys.argv[1:4])
