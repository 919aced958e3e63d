"""Assemble EXPERIMENTS.md from the job outputs in results/*.json.

    python jobs/make_experiments.py

Run after the jobs (README § Running); each job writes its rows into
results/, and this script renders them next to the paper's published
numbers (repro/papernumbers.py) with the shape commentary DESIGN.md
promises.
"""
import json
import os

from _session import RESULTS, ROOT  # first: puts src/ on the path
from repro.papernumbers import FIGURE_SHAPES, TABLE1
from repro.tables import PAPER_NAME


def _load(name):
    p = os.path.join(RESULTS, f"{name}.json")
    if not os.path.exists(p):
        return []
    with open(p) as f:
        return json.load(f)


def _md_table(rows, cols=None):
    if not rows:
        return "_(bench not yet run)_\n"
    cols = cols or list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def _fmt_mb(b):
    return f"{b:.2f}"


#: measured-shape commentary per perf dataset, written against the
#: results of the recorded bench run (regenerate after re-benching)
PERF_VERDICTS = {
    "roadnet": (
        "**Verdict: communication shape HOLDS strongly.** RADS moved "
        "0.47 MB total across all eight queries vs 11.6 MB (PSgL), "
        "53.3 MB (TwinTwig), 40.1 MB (SEED), 22.2 MB (Crystal) — the "
        "paper's 'almost 0' claim, because the BFS partition leaves most "
        "of the grid interior to SM-E. No engine fails (results are "
        "small on the sparse graph), as in the paper. Wall-clock is "
        "scheduler-bound for RADS (see header)."
    ),
    "dblp": (
        "**Verdict: communication shape HOLDS.** Per query RADS moves "
        "0.1–1.8 MB vs 1.4–27 MB (PSgL), 14–42 MB (TwinTwig/SEED) and up "
        "to 54 MB (Crystal on q6) — the paper's '<5 MB for RADS thanks "
        "to fetch caching' observation. PSgL's communication is the "
        "largest of the join-free engines on the bigger queries, as in "
        "Fig. 9(b). No failures — DBLP is small, as in the paper."
    ),
    "livejournal": (
        "**Verdict: robustness + communication shapes HOLD.** On q6 "
        "(6-cycle, no triangle) PSgL/TwinTwig/SEED all exceed the "
        "per-machine budget (the paper's 'impractical beyond q3'), while "
        "RADS completes with 2.1 MB of communication — and beats Crystal "
        "(171.9 s, 430 MB shuffled) outright, matching the paper's 'RADS "
        "wins queries without good crystals'. On the triangle queries "
        "q2/q4/q5, Crystal is fastest (index hit), matching Fig. 10. "
        "TwinTwig's q2 communication (555 MB) vs RADS (2.1 MB) shows the "
        "2-orders-of-magnitude gap the paper reports."
    ),
    "uk2002": (
        "**Verdict: PARTIAL.** The communication ordering holds where "
        "engines complete (q1: RADS 3.3 MB vs 12–29 MB for the shuffle "
        "engines), and on q6 every join engine fails on memory as in "
        "Fig. 11. Deviation: RADS *also* fails q2/q4/q6 here, unlike the "
        "paper. Cause (documented, DESIGN.md §7): uk2002-lite is a "
        "Barabási–Albert graph, which has none of the partition locality "
        "METIS finds in the real UK2002 web graph (web graphs cluster by "
        "host). With ~90% of each hub's neighbors foreign, R-Meef's "
        "deferred verification materializes hub-sized EC sets (Σ deg³) "
        "that the real system prunes locally during expansion. The "
        "robustness crossover the paper shows on UK2002 is instead "
        "demonstrated cleanly on livejournal-lite above."
    ),
}


def _perf_section(name, title, shape):
    rows = _load(f"perf_{name}")
    body = _md_table(
        rows,
        ["query", "engine", "embeddings", "time_s", "comm_MB", "peak_MB", "failed"],
    )
    verdict = PERF_VERDICTS.get(name, "")
    return f"### {title}\n\nPaper's shape: {shape}\n\n{body}\n{verdict}\n"


def render() -> str:
    """EXPERIMENTS.md's text from the rows in results/."""
    parts = ["""# EXPERIMENTS — paper vs measured

All numbers below are regenerated by the `jobs/` entrypoints (README
§ Running; each job writes its rows into `results/*.json`; this file is
rendered by `python jobs/make_experiments.py`). Absolute values cannot match the
paper — the paper ran C++/MPI on a 10-node cluster over billion-edge
graphs, we run a metered PySpark simulation over synthetic lite graphs
(DESIGN.md §2–3) — so each section states the paper's numbers, ours,
and whether the paper's *shape* (who wins, by what factor, where the
crossovers are) holds. The simulated cluster has m=10 machines and a
128 MB/machine intermediate-result budget.

**Reading the time column.** In a single-host Spark simulation every
Spark job and Python task costs a fixed scheduler overhead and the
"network" is free, so `time_s` tracks how many jobs an engine issues,
not the data it moves. The recorded rows predate RADS's per-machine
tasks: they were measured while RADS executed several times more
(tiny) Spark jobs per query than the monolithic join baselines, which
*inverts* the paper's wall-clock ordering (a traced `radsbench` run on
DBLP, n = 1200, q1 with 13 region groups: R-Meef alone issued 86 jobs
while the groups ran one after another, 44 in one grouped pass, 33
once every join against the edge table was a broadcast join and 21
once RADS's replicated bookkeeping moved to the driver). Each
machine's RADS work now runs inside a Spark task over the broadcast
graph, so one RADS call issues 1–2 jobs (SM-E's and R-Meef's phases
share one unless Φ's group cap may bind and so needs SM-E's count
first), against
17–20 for a whole baseline run, and on the `radsbench` workloads a RADS query takes
1.0–1.1× the time of the fastest baseline's (3.3–4.8× before). The
baselines' real cost — moving and materializing huge intermediates
across machines — still costs them nothing here. The paper's
performance claims are therefore reproduced
through the scheduler-independent columns: `comm_MB` (metered network
volume — RADS is 1–2+ orders of magnitude below every baseline on every
dataset, matching Figs. 8–11) and `failed` (per-machine memory, where
the join engines die on the dense graphs and RADS survives via region
groups, matching Figs. 10–11). Within a single engine, `time_s` is
still meaningful across queries/datasets.
"""]

    # ---- Table 1 ----
    rows = _load("table1_profiles")
    for r in rows:
        p = TABLE1[PAPER_NAME[r["dataset"].split("_")[0]]]
        r["paper(|V|,|E|,deg,diam)"] = (
            f"{p['|V|']}, {p['|E|']}, {p['avg_degree']}, {p['diameter']}"
        )
    parts.append(
        "## Table 1 — dataset profiles\n\n"
        "Ours are synthetic stand-ins ~3 orders of magnitude smaller; the\n"
        "column to compare is the *ordering*: RoadNet sparsest with a huge\n"
        "diameter, DBLP small/medium, LiveJournal dense, UK2002 densest.\n"
        "(The paper's RoadNet row prints avg degree 1.05 alongside |E|=717M,\n"
        "which is internally inconsistent; we quote it as printed.)\n\n"
        + _md_table(rows)
    )

    # ---- Table 2 ----
    rows = _load("table2_index")
    parts.append(
        "## Table 2 — Crystal clique-index size vs graph size\n\n"
        "Paper: the index is 7–16× the graph file. Our index stores plain\n"
        "k-clique lists (k=3,4) instead of Crystal's per-vertex clique codes\n"
        "(DESIGN.md §7), so the ratio is smaller on sparse graphs — the\n"
        "shape that must hold is: clique-rich graphs pay a much larger\n"
        "index, the road graph the smallest.\n\n"
        + _md_table(rows)
        + "\n**Verdict: PARTIAL.** Ordering holds at the extremes — the\n"
        "clustered DBLP stand-in pays by far the largest relative index\n"
        "(1.76× its graph) and the triangle-free road grid the smallest\n"
        "(0.01×) — but absolute ratios are far below the paper's 7–16×:\n"
        "our index is a plain clique list (not Crystal's per-vertex\n"
        "codes), and BA stand-ins have far lower clustering than the\n"
        "real LiveJournal/UK2002, so they carry few cliques to index.\n"
    )

    # ---- Tables 3 & 4 ----
    t34_verdicts = {
        3: "**Verdict: direction HOLDS, magnitude scale-limited.** As in\n"
        "the paper, RoadNet compresses worst — its embeddings are\n"
        "diverse and share few prefixes — and at our ~10⁴-vertex scale\n"
        "most queries dip below break-even (ratio < 1: a 20 B trie node\n"
        "vs an 8 B list entry only pays off once many results share\n"
        "prefixes). q2/q4/q5 report EC-set sizes only (a grid has no\n"
        "triangles, so final results are empty — a documented artifact\n"
        "of the grid stand-in).\n",
        4: "**Verdict: shape HOLDS.** The trie wins on 6 of 8 queries\n"
        "(EL/ET up to 1.49 on q6) and DBLP compresses strictly better\n"
        "than RoadNet — exactly the paper's cross-dataset observation\n"
        "('embeddings of Roadnet are very diverse'). Paper ratios\n"
        "(~3–5×) need the billions of shared-prefix results of the real\n"
        "0.3M-vertex DBLP; ours grow with scale in the same direction.\n",
    }
    for name, tno, unit in (
        ("table3_compress_roadnet", 3, "paper in MB"),
        ("table4_compress_dblp", 4, "paper in GB"),
    ):
        rows = _load(name)
        parts.append(
            f"## Table {tno} — embedding list (EL) vs embedding trie (ET) "
            f"({unit}, ours in MB)\n\n"
            "Shape to hold: stronger compression on DBLP than on RoadNet\n"
            "(paper: ~2–2.5× on RoadNet vs ~4–5× on DBLP) because road\n"
            "embeddings are diverse and share few prefixes. `ratio` = EL/ET;\n"
            "values are the peak over per-round EC sets and the final\n"
            "result set, cluster-wide.\n\n"
            + _md_table(rows)
            + "\n" + t34_verdicts[tno]
        )

    # ---- Figures 8–11 ----
    parts.append("## Figures 8–11 (rendered as tables) — performance comparison\n")
    for name, title, shape in (
        ("roadnet", "Exp-1: RoadNet-lite (Figure 8)", FIGURE_SHAPES[0]),
        ("dblp", "Exp-2: DBLP-lite (Figure 9)", FIGURE_SHAPES[1]),
        ("livejournal", "Exp-3: LiveJournal-lite (Figure 10)", FIGURE_SHAPES[2]),
        ("uk2002", "Exp-4: UK2002-lite (Figure 11)", FIGURE_SHAPES[3]),
    ):
        parts.append(_perf_section(name, title, shape))

    # ---- Appendix C.2 ----
    rows = _load("plan_effect_dblp")
    parts.append(
        "## Appendix C.2 — execution-plan effectiveness (Figure 13)\n\n"
        "Shape: the optimized plan ≤ RanM ≤ RanS in communication (and\n"
        "usually time); differences grow with query size.\n\n"
        + _md_table(rows)
        + "\n**Verdict: shape HOLDS.** The optimized plan has the lowest\n"
        "communication on every query (e.g. q8: 0.43 MB vs RanS 1.43 MB)\n"
        "and the lowest or near-lowest time; RanM sits between, exactly\n"
        "the Figure 13 ordering (RanS pays for oversized random stars,\n"
        "RanM for mis-ordered verification edges).\n"
    )

    # ---- Table 1 row shape assertion baked into prose ----
    parts.append(
        "## Summary\n\n"
        "| Paper claim | Status |\n|---|---|\n"
        "| Table 1 dataset ordering (sparsity/diameter/density) | holds |\n"
        "| Table 2 index ≫ graph on clique-rich data | partial (simplified index, low-clustering BA stand-ins) |\n"
        "| Table 3 RoadNet compresses worse than DBLP | holds (direction), below break-even at lite scale |\n"
        "| Table 4 trie beats list on DBLP | holds (6/8 queries, up to 1.49×) |\n"
        "| Figs. 8–11: RADS communication 1–2+ orders below baselines | holds on all four datasets |\n"
        "| Figs. 10–11: join engines OOM on dense graphs, RADS survives | holds on LiveJournal; partial on UK2002 (BA partitionability artifact) |\n"
        "| Fig. 10: Crystal wins triangle queries, RADS wins triangle-free | holds |\n"
        "| Fig. 13: optimized plan ≤ RanM ≤ RanS | holds |\n"
        "| Figs. 8–11 wall-clock ordering | not reproducible in a single-host simulation (scheduler-bound; see header) |\n"
    )

    return "\n".join(parts)


def main() -> None:
    text = render()
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), "w") as f:
        f.write(text)
    print(f"wrote EXPERIMENTS.md ({len(text)} bytes)")


if __name__ == "__main__":
    main()
