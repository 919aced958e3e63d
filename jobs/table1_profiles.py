"""Table 1 — dataset profiles (|V|, |E|, avg degree, diameter).

    spark-submit jobs/table1_profiles.py [tiny|lite]
"""
import sys

import _session  # noqa: F401  (first: puts src/ on the path)
from repro.papernumbers import TABLE1
from repro.tables import print_rows, table1_rows


def main(scale: str = "lite") -> list[dict]:
    rows = table1_rows(scale=scale)
    for r in rows:
        paper = TABLE1[r["paper_dataset"]]
        r["paper_V"] = paper["|V|"]
        r["paper_E"] = paper["|E|"]
        r["paper_avg_deg"] = paper["avg_degree"]
        r["paper_diameter"] = paper["diameter"]
    print_rows(rows, f"Table 1 — dataset profiles ({scale})")
    return rows


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "lite")
