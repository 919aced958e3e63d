"""RADS top level: SM-E split + region grouping + R-Meef (Figure 1).

``run_rads`` is the full system of the paper: it splits the start-vertex
candidates by border distance (Prop. 1), enumerates the far-from-border
ones on their own machines (SM-E), region-groups the rest, and runs the
distributed R-Meef rounds over them. The union is the answer; the
metrics object carries the simulated communication and memory costs.

Each machine's work runs inside a Spark task over the graph's
broadcast adjacency, in two jobs: SM-E over the C1 candidates, then
Algorithm 3 and every R-Meef round over the rest. Both run one numpy
kernel, ``core.expand.expand_rounds``. A warm call issues four driver
actions (a checkpoint and a record collect per job), whatever the round
count. The candidate split, Φ's group cap, the metering and the
embedding count are bookkeeping on the driver: the split reads the
graph's replicated degree and border-distance arrays, and the rest
comes from the tasks' meter records.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes
from repro.core.metrics import TRIE_NODE_BYTES, VERTEX_BYTES, RunMetrics
from repro.core.rmeef import run_rmeef
from repro.core.sme import candidate_split, sme_enumerate
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
    measure_compression: bool = False,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` with RADS. Returns (embeddings, metrics);
    embeddings has one column per query vertex (u0..u{n-1}).

    * ``bytes_budget`` — simulated per-machine memory; exceeded ⇒ failed.
    * ``group_mem_bytes`` — Φ for region grouping (Alg. 3); None ⇒ one
      region group per machine.
    """
    t0 = time.perf_counter()
    metrics = RunMetrics("rads", query_name or pattern.name, gc.name)
    plan = plan or choose_plan(pattern)
    u_start = plan.units[0].piv

    c1, rest = candidate_split(gc, pattern, u_start)

    # --- SM-E per machine (Prop. 1 candidates) ---
    sme_df = sme_enumerate(gc, pattern, plan, c1, metrics)
    n_sme = metrics.extras["sme_embeddings"]
    metrics.extras["c1_candidates"] = len(c1)

    # --- region groups: Φ / (estimated rows per candidate, from SM-E) ---
    max_group = None
    if group_mem_bytes is not None:
        est_rows = max(1.0, n_sme / max(1, len(c1)))
        per_cand_bytes = est_rows * pattern.n * VERTEX_BYTES
        max_group = max(1, int(group_mem_bytes // per_cand_bytes))
        metrics.extras["max_group_size"] = max_group

    # --- distributed phase ---
    dist_df = run_rmeef(
        gc, pattern, plan, rest, metrics,
        max_group_size=max_group,
        bytes_budget=bytes_budget,
        measure_compression=measure_compression,
    )
    if dist_df is None:
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    out = sme_df.unionByName(dist_df)
    metrics.n_embeddings = n_sme + metrics.extras["dist_embeddings"]
    if measure_compression:
        # include the final result set (SM-E + distributed) in the
        # EL-vs-ET comparison, stored in matching order like the trie;
        # the start vertex comes first, so SM-E's and each machine's
        # region groups' tries share no node
        el = list_bytes(metrics.n_embeddings, pattern.n)
        nodes = metrics.extras["sme_trie_nodes"] + metrics.extras["dist_trie_nodes"]
        et = nodes * TRIE_NODE_BYTES
        metrics.extras["el_bytes"] = max(metrics.extras.get("el_bytes", 0), el)
        metrics.extras["et_bytes"] = max(metrics.extras.get("et_bytes", 0), et)
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
