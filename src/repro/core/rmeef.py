"""R-Meef: region-grouped multi-round expand / verify & filter (Sec. 3.2).

The distributed rounds as a Catalyst dataflow. Each embedding row
carries its *home machine* ``m`` (owner of the start vertex) and region
group ``g``; all region groups run in one dataflow keyed by ``(m, g)``.
Per unit of the execution plan:

Expand   — join on the pivot's adjacency, one leaf at a time, applying
           degree / injectivity / symmetry-breaking filters (the shared
           step of ``repro.core.expand``), then check the
           *locally-verifiable* verification edges immediately. Edges
           whose existence machine ``m`` cannot see (neither endpoint
           owned nor cached — Definition 4's undetermined edges) pass
           through with a pending flag: the resulting set is exactly
           the EC set of Definition 3.
Verify & Filter — distinct pending (m, v, v') pairs are the verifyE
           requests (the EVI dedupes shared undetermined edges, hence
           *distinct*); failed ECs are filtered.

Communication metering (DESIGN.md §2): fetchV = adjacency bytes of
newly-fetched foreign pivots; verifyE = 17 bytes per distinct pair.
The fetch cache is per (m, g), persists across rounds as in the paper,
and lives on the driver like the replicated ownership map and degrees:
the action that collects each round's metering aggregate also returns
the distinct (m, g, next-round pivot) of the rows that survive
verification, and the next round's fetchV is computed from them without
a Spark job. The surviving
rows of the last round are counted by the same aggregate.
Intermediate results never shuffle between machines — rows keep their
home ``m`` for their whole life, which is the paper's core claim. That
holds in the Spark plan too: every join against the edge table, the
ownership map, the degrees and the fetch cache is a broadcast join, so
EC rows stay in their partitions across expand and verify.
"""
from __future__ import annotations

from collections import Counter
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.emtrie import list_bytes, trie_level_aggs
from repro.core.expand import _c, expand
from repro.core.metrics import (
    TRIE_NODE_BYTES,
    VERIFY_PAIR_BYTES,
    VERTEX_BYTES,
    RunMetrics,
)
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan


def _o(u: int) -> str:
    return f"__o_{u}"


class _Budget(Exception):
    """Raised when an intermediate exceeds the simulated memory budget."""


def run_rmeef(
    gc: GraphContext,
    pattern: Pattern,
    plan: Plan,
    start_candidates: DataFrame,
    metrics: RunMetrics,
    *,
    bytes_budget: int | None = None,
    measure_compression: bool = False,
) -> DataFrame | None:
    """Run the distributed phase; returns the embedding DataFrame
    (columns u0..u{n-1}) or None when the budget was exceeded
    (``metrics.failed`` is set). ``start_candidates``: (machine, v) of
    dp0.piv candidates assigned to the distributed phase, with their
    region group in an optional ``g`` column (absent: one group per
    machine). ``metrics.extras["dist_embeddings"]`` gets the number of
    embeddings found."""
    u0 = plan.units[0].piv
    g = F.col("g") if "g" in start_candidates.columns else F.lit(0)
    base = start_candidates.select(
        F.col("machine").alias("m"),
        F.col("v").alias(_c(u0)),
        g.alias("g"),
        F.col("machine").alias(_o(u0)),
    )

    metrics.rounds = plan.rounds
    try:
        out = _run_rounds(
            gc, pattern, plan, base, metrics, bytes_budget, measure_compression
        )
    except _Budget as e:
        metrics.failed = True
        metrics.fail_reason = str(e)
        return None
    cols = [_c(u) for u in range(pattern.n)]
    return out.select(*cols)


def _run_rounds(
    gc: GraphContext,
    pattern: Pattern,
    plan: Plan,
    R: DataFrame,
    metrics: RunMetrics,
    bytes_budget: int | None,
    measure_compression: bool,
) -> DataFrame:
    # fetched foreign vertices, per (machine, region group): each group
    # starts with an empty cache, as if the groups ran one after another
    cache: dict[tuple[int, int], set[int]] = {}
    matched: list[int] = [plan.units[0].piv]
    last = plan.rounds - 1

    for i in range(plan.rounds):
        # ---- fetchV: adjacency of foreign pivots, dedup via cache ----
        if i > 0:
            cached = _fetch(gc, cache, next_pivots, metrics)

        # ---- expand: one leaf at a time ----
        p = plan.units[i].piv
        pending: list[tuple[int, int]] = []
        for u in plan.leaf_order(i):
            cu = _c(u)
            R = expand(gc, R, pattern, matched, u, p)
            R = R.join(  # ownership of the new vertex (replicated map)
                F.broadcast(
                    gc.owner.select(F.col("v").alias(cu), F.col("machine").alias(_o(u)))
                ),
                cu,
            )
            # verification edges incident to u with an earlier endpoint
            for x, _ in plan.verification_edges_for_leaf(i, u):
                cx = _c(x)
                ex, ud = f"__ex_{x}_{u}", f"__ud_{x}_{u}"
                ee = gc.edges.select(
                    F.col("src").alias("__va"),
                    F.col("dst").alias("__vb"),
                    F.lit(True).alias(ex),
                )
                R = (
                    R.join(
                        F.broadcast(ee),
                        (F.col(cx) == F.col("__va")) & (F.col(cu) == F.col("__vb")),
                        "left",
                    )
                    .drop("__va", "__vb")
                    .withColumn(ex, F.coalesce(F.col(ex), F.lit(False)))
                )
                # locally verifiable at m: an endpoint owned by m or in
                # the (m, g) fetch cache
                local = (F.col(_o(x)) == F.col("m")) | (F.col(_o(u)) == F.col("m"))
                if i > 0:  # the fetch cache is empty before round 1
                    R = _with_cached_flag(R, cached, cx, "__cx")
                    R = _with_cached_flag(R, cached, cu, "__cu")
                    local = local | F.col("__cx") | F.col("__cu")
                R = R.withColumn(ud, ~local)
                if i > 0:
                    R = R.drop("__cx", "__cu")
                # locally-failed ECs never materialize (Algorithm 2 line 10)
                R = R.filter(F.col(ex) | F.col(ud))
                pending.append((x, u))
            matched.append(u)

        # ---- materialize the EC set of P_i ----
        R = R.localCheckpoint()
        # one aggregate job: total EC rows + per-(machine, group) peak
        # (memory is a per-machine, per-region-group quantity), the EVI
        # verifyE volume per pending edge (distinct undetermined pairs),
        # the per-group embedding-trie size (distinct prefixes in
        # matching order) — what a machine actually holds in memory —
        # and, in the last round, the number of rows that pass
        # verification (the distributed phase's embeddings)
        matched_set = set(matched)
        cols_mo = [_c(u) for u in plan.matching_order if u in matched_set]
        aggs = [F.count(F.lit(1)).alias("__n")]
        for x, u in pending:
            aggs.append(
                F.count_distinct(
                    F.when(
                        F.col(f"__ud_{x}_{u}"),
                        F.struct(F.col("m"), F.col(_c(x)), F.col(_c(u))),
                    )
                ).alias(f"__p_{x}_{u}")
            )
        aggs += trie_level_aggs(cols_mo)
        verified = reduce(
            lambda a, b: a & b,
            (F.col(f"__ex_{x}_{u}") for x, u in pending),
            F.lit(True),
        )
        if i == last:
            aggs.append(F.count(F.when(verified, F.lit(1))).alias("__s"))
        metering = R.groupBy("m", "g").agg(*aggs)
        if i < last:
            # the same action returns the survivors' distinct (m, g,
            # next pivot) rows; a collect_set in the aggregate would
            # turn it into a slower sort-based aggregation
            pivots = R.filter(verified).select(
                "m", "g", F.col(_c(plan.units[i + 1].piv)).alias("__v")
            ).distinct()
            rows = metering.unionByName(pivots, allowMissingColumns=True).collect()
            grouped = [r for r in rows if r["__v"] is None]
            next_pivots = [r for r in rows if r["__v"] is not None]
        else:
            grouped = metering.collect()
        # memory is per (machine, region group); EL/ET and the peak EC
        # set are per region group, summed over machines. The start
        # vertex (first in matching order) fixes m and g, so the (m, g)
        # prefix counts add up to the group's — or, with g = 0, the
        # cluster's — trie
        trie_nodes = [sum(r[f"__t{j}"] for j in range(len(cols_mo))) for r in grouped]
        g_rows: Counter[int] = Counter()
        g_nodes: Counter[int] = Counter()
        for r, n in zip(grouped, trie_nodes):
            g_rows[r["g"]] += r["__n"]
            g_nodes[r["g"]] += n
        for rows in g_rows.values():
            metrics.see_intermediate(rows, len(matched))
        peak_trie_bytes = max(trie_nodes, default=0) * TRIE_NODE_BYTES
        metrics.extras["peak_group_trie_bytes"] = max(
            metrics.extras.get("peak_group_trie_bytes", 0), peak_trie_bytes
        )
        if measure_compression:
            el = list_bytes(max(g_rows.values(), default=0), len(matched))
            et = max(g_nodes.values(), default=0) * TRIE_NODE_BYTES
            metrics.extras["el_bytes"] = max(metrics.extras.get("el_bytes", 0), el)
            metrics.extras["et_bytes"] = max(metrics.extras.get("et_bytes", 0), et)
        # RADS stores intermediates in the embedding trie (Sec. 5), so
        # the per-machine memory check compares the *trie* size of the
        # group's EC set against the budget — this is what lets RADS
        # survive hub-heavy rounds that would OOM as flat lists
        if bytes_budget is not None and peak_trie_bytes > bytes_budget:
            raise _Budget(
                f"round {i}: a region group's embedding trie needs "
                f"{peak_trie_bytes / 1e6:.0f}MB, over the per-machine budget"
            )

        # ---- verify & filter: EVI = distinct undetermined pairs ----
        for x, u in pending:
            n_pairs = sum(r[f"__p_{x}_{u}"] for r in grouped)
            if n_pairs:
                metrics.add_comm("verifyE", n_pairs * VERIFY_PAIR_BYTES)
            R = R.filter(F.col(f"__ex_{x}_{u}")).drop(
                f"__ex_{x}_{u}", f"__ud_{x}_{u}"
            )
    metrics.extras["dist_embeddings"] = sum(r["__s"] for r in grouped)
    return R


def _fetch(
    gc: GraphContext,
    cache: dict[tuple[int, int], set[int]],
    pivots: list,
    metrics: RunMetrics,
) -> DataFrame:
    """fetchV on the driver: meter the adjacency of the foreign vertices
    among ``pivots`` (distinct (m, g, __v) rows) that the (m, g) cache
    lacks, add them to it, and return the whole cache as an (m, g, v)
    local relation."""
    n = d = 0
    for r in pivots:
        m, v = r["m"], r["__v"]
        have = cache.setdefault((m, r["g"]), set())
        if gc.owner_np[v] != m and v not in have:
            have.add(v)
            n += 1
            d += int(gc.deg_np[v])
    if n:
        metrics.add_comm("fetchV", (d + 2 * n) * VERTEX_BYTES)
    rows = [(m, g, v) for (m, g), vs in cache.items() for v in vs]
    pdf = pd.DataFrame(np.array(rows, dtype=np.int64).reshape(-1, 3), columns=["m", "g", "v"])
    return gc.spark.createDataFrame(pdf, "m int, g int, v long")


def _with_cached_flag(R: DataFrame, cached: DataFrame, vcol: str, flag: str) -> DataFrame:
    """Mark rows whose ``vcol`` vertex is in the (m, g) fetch cache."""
    c = cached.select(
        "m", "g", F.col("v").alias(vcol), F.lit(True).alias(flag)
    )
    # the fetch cache is small relative to embeddings —
    # broadcast it like the replicated ownership map
    return R.join(F.broadcast(c), ["m", "g", vcol], "left").withColumn(
        flag, F.coalesce(F.col(flag), F.lit(False))
    )
