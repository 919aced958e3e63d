"""RADS top level: SM-E split + region grouping + R-Meef (Figure 1).

``run_rads`` is the full system of the paper: it splits the start-vertex
candidates by border distance (Prop. 1), enumerates the far-from-border
ones with the single-machine algorithm per machine, region-groups the
rest, and runs the distributed R-Meef rounds over them. The union is
the answer; the metrics object carries the simulated communication and
memory costs.

Spark jobs run only for embedding work: SM-E (materialized once and
counted), the region grouping (collected once), R-Meef's rounds and,
with ``measure_compression``, the result's trie size.
The candidate split, the region-group count, R-Meef's start rows and
the embedding count are bookkeeping kept on the driver: the split reads
the graph's replicated degree and border-distance arrays, the start
rows are the collected region-group table, and the distributed phase's
embeddings are counted by its last metering aggregate.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes, trie_bytes_spark
from repro.core.expand import _c
from repro.core.metrics import VERTEX_BYTES, RunMetrics
from repro.core.regions import GROUPS_SCHEMA, assign_region_groups_spark
from repro.core.rmeef import run_rmeef
from repro.core.sme import candidate_split, sme_enumerate, split_candidates
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan, choose_plan


def run_rads(
    gc: GraphContext,
    pattern: Pattern,
    query_name: str = "",
    plan: Plan | None = None,
    *,
    bytes_budget: int | None = None,
    group_mem_bytes: int | None = None,
    use_sme: bool = True,
    measure_compression: bool = False,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` with RADS. Returns (embeddings, metrics);
    embeddings has one column per query vertex (u0..u{n-1}).

    * ``bytes_budget`` — simulated per-machine memory; exceeded ⇒ failed.
    * ``group_mem_bytes`` — Φ for region grouping (Alg. 3); None ⇒ one
      region group per machine.
    * ``use_sme=False`` disables Prop. 1 (everything distributed) — used
      by the ablation experiment.
    """
    t0 = time.perf_counter()
    metrics = RunMetrics("rads", query_name or pattern.name, gc.name)
    plan = plan or choose_plan(pattern)
    u_start = plan.units[0].piv

    c1, rest = split_candidates(gc, pattern, u_start)
    n_c1 = len(candidate_split(gc, pattern, u_start)[0])
    if not use_sme:
        rest = c1.unionByName(rest)
        c1 = c1.limit(0)
        n_c1 = 0

    # --- SM-E per machine (Prop. 1 candidates) ---
    sme_df = sme_enumerate(gc, pattern, plan, c1).localCheckpoint()
    n_sme = sme_df.count()
    metrics.extras["sme_embeddings"] = n_sme
    metrics.extras["c1_candidates"] = n_c1

    # --- region groups: Φ / (estimated rows per candidate, from SM-E) ---
    if group_mem_bytes is not None:
        est_rows = max(1.0, n_sme / max(1, n_c1))
        per_cand_bytes = est_rows * pattern.n * VERTEX_BYTES
        max_group = max(1, int(group_mem_bytes // per_cand_bytes))
        metrics.extras["max_group_size"] = max_group
        # collected once: the group count and R-Meef's start rows
        # (machine, v, g) come from the driver's copy
        groups = assign_region_groups_spark(gc, rest, max_group).toPandas()
        metrics.extras["n_region_groups"] = len(groups.drop_duplicates(["machine", "g"]))
        rest = gc.spark.createDataFrame(groups, GROUPS_SCHEMA)

    # --- distributed phase ---
    dist_df = run_rmeef(
        gc, pattern, plan, rest, metrics,
        bytes_budget=bytes_budget,
        measure_compression=measure_compression,
    )
    if dist_df is None:
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    cols = [_c(u) for u in range(pattern.n)]
    out = sme_df.select(*cols).unionByName(dist_df.select(*cols))
    metrics.n_embeddings = n_sme + metrics.extras["dist_embeddings"]
    if measure_compression:
        # include the final result set (SM-E + distributed) in the
        # EL-vs-ET comparison, stored in matching order like the trie
        mo_cols = [_c(u) for u in plan.matching_order]
        el = list_bytes(metrics.n_embeddings, pattern.n)
        et = trie_bytes_spark(out, mo_cols)
        metrics.extras["el_bytes"] = max(metrics.extras.get("el_bytes", 0), el)
        metrics.extras["et_bytes"] = max(metrics.extras.get("et_bytes", 0), et)
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
