"""Tables 3 & 4 — embedding-list vs embedding-trie space (RADS
intermediates) on RoadNet-lite (Table 3) and DBLP-lite (Table 4).

    spark-submit jobs/table3_table4_compression.py [tiny|lite] [out_dir]

Writes ``table3_compress_roadnet.json`` and ``table4_compress_dblp.json``.
"""
import sys

from _session import RESULTS, get_session, save_rows  # first: puts src/ on the path
from repro.graphs.datasets import make_context
from repro.papernumbers import TABLE3_ROADNET_MB, TABLE4_DBLP_GB
from repro.tables import compression_rows, print_rows


def main(spark, scale: str = "lite", out_dir: str = RESULTS, m: int = 10) -> dict[str, list[dict]]:
    out = {}
    for tno, ds, paper, unit in (
        (3, "roadnet", TABLE3_ROADNET_MB, "MB"),
        (4, "dblp", TABLE4_DBLP_GB, "GB"),
    ):
        gc = make_context(spark, ds, scale, m=m)
        rows = compression_rows(gc)
        for r in rows:
            p = paper.get(r["query"], {})
            r[f"paper_EL_{unit}"] = p.get("EL")
            r[f"paper_ET_{unit}"] = p.get("ET")
        print_rows(rows, f"Table {tno} — EL vs ET on {gc.name}")
        save_rows(f"table{tno}_compress_{ds}", rows, out_dir)
        out[ds] = rows
        gc.unpersist()
    return out


if __name__ == "__main__":
    main(get_session("compression"), *sys.argv[1:3])
