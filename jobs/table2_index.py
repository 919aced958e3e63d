"""Table 2 — Crystal clique-index size vs data graph file size.

    spark-submit jobs/table2_index.py [tiny|lite] [out_dir]
"""
import sys

from _session import get_session  # first: puts src/ on the path
from repro.papernumbers import TABLE2
from repro.tables import print_rows, table2_rows


def main(spark, scale: str = "lite", out_dir: str = "results/crystal_index") -> list[dict]:
    rows = table2_rows(spark, out_dir, scale=scale)
    for r in rows:
        paper = TABLE2[r["paper_dataset"]]
        r["paper_graph"] = paper["graph"]
        r["paper_index"] = paper["index"]
        r["paper_ratio"] = paper["ratio"]
    print_rows(rows, f"Table 2 — Crystal index sizes ({scale})")
    return rows


if __name__ == "__main__":
    main(
        get_session("table2-index"),
        sys.argv[1] if len(sys.argv) > 1 else "lite",
        sys.argv[2] if len(sys.argv) > 2 else "results/crystal_index",
    )
