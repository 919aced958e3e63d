"""Table 2 — Crystal clique-index size vs data graph file size.

    spark-submit jobs/table2_index.py [tiny|lite] [out_dir]

Writes ``table2_index.json``; the indexes go under
``<out_dir>/crystal_index/``.
"""
import os
import sys

from _session import RESULTS, get_session, save_rows  # first: puts src/ on the path
from repro.papernumbers import TABLE2
from repro.tables import print_rows, table2_rows


def main(spark, scale: str = "lite", out_dir: str = RESULTS) -> list[dict]:
    rows = table2_rows(spark, os.path.join(out_dir, "crystal_index"), scale=scale)
    for r in rows:
        paper = TABLE2[r["paper_dataset"]]
        r["paper_graph"] = paper["graph"]
        r["paper_index"] = paper["index"]
        r["paper_ratio"] = paper["ratio"]
    print_rows(rows, f"Table 2 — Crystal index sizes ({scale})")
    save_rows("table2_index", rows, out_dir)
    return rows


if __name__ == "__main__":
    main(get_session("table2-index"), *sys.argv[1:3])
