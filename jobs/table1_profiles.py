"""Table 1 — dataset profiles (|V|, |E|, avg degree, diameter).

    spark-submit jobs/table1_profiles.py [tiny|lite] [out_dir]

Writes ``table1_profiles.json``; EXPERIMENTS.md joins in the paper's
column from ``repro.papernumbers.TABLE1``.
"""
import sys

from _session import RESULTS, save_rows  # first: puts src/ on the path
from repro.tables import print_rows, table1_rows


def main(scale: str = "lite", out_dir: str = RESULTS) -> list[dict]:
    rows = table1_rows(scale=scale)
    for r in rows:
        del r["paper_dataset"]
    print_rows(rows, f"Table 1 — dataset profiles ({scale})")
    save_rows("table1_profiles", rows, out_dir)
    return rows


if __name__ == "__main__":
    main(*sys.argv[1:3])
