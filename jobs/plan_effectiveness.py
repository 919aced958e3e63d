"""Appendix C.2 — execution-plan effectiveness: RADS's optimized plan
vs RanS (random star decomposition) and RanM (random minimum-round).

    spark-submit jobs/plan_effectiveness.py [dataset] [tiny|lite]
"""
import sys

from _session import get_session  # first: puts src/ on the path
from repro.graphs.datasets import make_context
from repro.tables import plan_effectiveness_rows, print_rows


def main(spark, dataset: str = "dblp", scale: str = "lite", m: int = 10) -> list[dict]:
    gc = make_context(spark, dataset, scale, m=m)
    rows = plan_effectiveness_rows(gc)
    print_rows(rows, f"Plan effectiveness on {gc.name} (Appendix C.2)")
    gc.unpersist()
    return rows


if __name__ == "__main__":
    main(
        get_session("plan-effect"),
        sys.argv[1] if len(sys.argv) > 1 else "dblp",
        sys.argv[2] if len(sys.argv) > 2 else "lite",
    )
