"""Experiment harnesses — one function per paper table / figure-family.

Each returns a list of flat row dicts; the jobs/ entrypoints print them
and write them to results/*.json, and EXPERIMENTS.md records them next
to the paper's numbers. All of
them take the session SparkSession (they never create their own).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines.crystal import CliqueIndex, build_clique_index, run_crystal
from repro.baselines.psgl import run_psgl
from repro.baselines.seed import run_seed
from repro.baselines.twintwig import run_twintwig
from repro.core.engine import run_rads
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import DATASETS, GraphContext, make_context, make_edges
from repro.graphs.stats import profile
from repro.query.plan import choose_plan, random_minround_plan, random_star_plan
from repro.query.queries import QUERIES

#: display name mapping: ours -> the paper's dataset it stands in for
PAPER_NAME = {
    "roadnet": "RoadNet",
    "dblp": "DBLP",
    "livejournal": "LiveJournal",
    "uk2002": "UK2002",
}


# ---------------- Table 1 ----------------

def table1_rows(scale: str = "lite") -> list[dict]:
    """Profiles of the four synthetic stand-in datasets."""
    rows = []
    for name in DATASETS:
        edges, n = make_edges(name, scale)
        prof = profile(edges, n, name=f"{name}_{scale}")
        r = prof.row()
        r["paper_dataset"] = PAPER_NAME[name]
        rows.append(r)
    return rows


# ---------------- Table 2 ----------------

def table2_rows(spark: SparkSession, out_dir: str, scale: str = "lite", m: int = 10) -> list[dict]:
    """Crystal clique-index size vs graph file size per dataset; the
    indexes are written under ``out_dir``."""
    rows = []
    for name in DATASETS:
        gc = make_context(spark, name, scale, m=m)
        idx = build_clique_index(gc, f"{out_dir}/{name}_{scale}")
        rows.append(
            {
                "dataset": gc.name,
                "paper_dataset": PAPER_NAME[name],
                "graph_MB": round(idx.graph_bytes / 1e6, 3),
                "index_MB": round(idx.index_bytes / 1e6, 3),
                "ratio": round(idx.ratio(), 2),
                "build_s": round(idx.build_s, 2),
            }
        )
        gc.unpersist()
    return rows


# ---------------- Tables 3 & 4 ----------------

def compression_rows(
    gc: GraphContext, queries: dict | None = None
) -> list[dict]:
    """EL vs ET bytes of RADS intermediate results per query (peak over
    the per-round EC sets and the final embedding set)."""
    queries = queries or QUERIES
    rows = []
    for qn, p in queries.items():
        _, met = run_rads(gc, p, qn, measure_compression=True)
        el = met.extras.get("el_bytes", 0)
        et = met.extras.get("et_bytes", 0)
        rows.append(
            {
                "dataset": gc.name,
                "query": qn,
                "embeddings": met.n_embeddings,
                "EL_MB": round(el / 1e6, 4),
                "ET_MB": round(et / 1e6, 4),
                "ratio": round(el / et, 2) if et else None,
            }
        )
    return rows


# ---------------- Figures 8-11 as tables: performance comparison ----------------

ENGINES = ("rads", "psgl", "twintwig", "seed", "crystal")


def perf_rows(
    gc: GraphContext,
    queries: dict | None = None,
    engines: tuple[str, ...] = ENGINES,
    *,
    bytes_budget: int | None = None,
    crystal_index: CliqueIndex | None = None,
) -> list[dict]:
    """Time + simulated communication for each engine × query.

    ``bytes_budget`` simulates per-machine memory; engines whose
    intermediates exceed it are recorded as failed (the paper's empty
    bars). Crystal needs ``crystal_index``, its offline index, built by
    the caller with ``build_clique_index`` (not charged to query time,
    like the paper)."""
    queries = queries or QUERIES
    if "crystal" in engines and crystal_index is None:
        raise ValueError("the crystal engine needs a crystal_index")
    rows = []
    for qn, p in queries.items():
        for eng in engines:
            met = _run_engine(gc, eng, p, qn, bytes_budget, crystal_index)
            rows.append(met.row())
    return rows


def _run_engine(
    gc: GraphContext,
    engine: str,
    pattern,
    qn: str,
    bytes_budget: int | None,
    crystal_index: CliqueIndex | None,
) -> RunMetrics:
    if engine == "rads":
        # Φ (region-group memory target) sits well below the machine
        # budget, as in the paper — groups are RADS's safety margin
        _, met = run_rads(
            gc, pattern, qn, bytes_budget=bytes_budget,
            group_mem_bytes=None if bytes_budget is None else bytes_budget // 8,
        )
    elif engine == "psgl":
        _, met = run_psgl(gc, pattern, qn, bytes_budget=bytes_budget)
    elif engine == "twintwig":
        _, met = run_twintwig(gc, pattern, qn, bytes_budget=bytes_budget)
    elif engine == "seed":
        _, met = run_seed(gc, pattern, qn, bytes_budget=bytes_budget)
    elif engine == "crystal":
        _, met = run_crystal(gc, pattern, crystal_index, qn, bytes_budget=bytes_budget)
    else:
        raise ValueError(engine)
    return met


# ---------------- Appendix C.2: plan effectiveness ----------------

def plan_effectiveness_rows(
    gc: GraphContext, queries: dict | None = None, n_random: int = 2
) -> list[dict]:
    """RADS with its optimized plan vs RanS / RanM random plans
    (averaged over ``n_random`` seeds; the paper averages 5 runs).
    The defaults are the configuration of the recorded table."""
    queries = queries or {k: QUERIES[k] for k in ("q4", "q5", "q7", "q8")}
    rows = []
    for qn, p in queries.items():
        _, met = run_rads(gc, p, qn, plan=choose_plan(p))
        row = {"dataset": gc.name, "query": qn, "RADS_s": round(met.elapsed_s, 3),
               "RADS_comm_MB": round(met.comm_bytes / 1e6, 4)}
        for label, planner in (("RanS", random_star_plan), ("RanM", random_minround_plan)):
            ts, comms = [], []
            for s in range(n_random):
                _, m2 = run_rads(gc, p, qn, plan=planner(p, seed=s))
                ts.append(m2.elapsed_s)
                comms.append(m2.comm_bytes)
            row[f"{label}_s"] = round(sum(ts) / len(ts), 3)
            row[f"{label}_comm_MB"] = round(sum(comms) / len(comms) / 1e6, 4)
        rows.append(row)
    return rows


# ---------------- pretty printing ----------------

def print_rows(rows: list[dict], title: str = "") -> None:
    """Markdown-ish table printer shared by the jobs."""
    if title:
        print(f"\n## {title}")
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0].keys())
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        print("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
