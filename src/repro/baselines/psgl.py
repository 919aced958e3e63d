"""PSgL baseline (Shao et al., SIGMOD 2014).

Pregel-style graph exploration: query vertices are matched one at a
time in breadth-first order; after every superstep ALL partial
embeddings are messages re-shuffled to the machine owning the next
expansion anchor. No compression, no locality, no memory control —
exactly the properties the paper contrasts RADS against (Related Work
items (1)–(3)).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.common import attach_vertices, bfs_vertex_order
from repro.core.expand import _c
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


def run_psgl(
    gc: GraphContext,
    pattern: Pattern,
    query_name: str = "",
    *,
    bytes_budget: int | None = None,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` PSgL-style. Returns (embeddings, metrics)."""
    t0 = time.perf_counter()
    metrics = RunMetrics("psgl", query_name or pattern.name, gc.name)
    order = bfs_vertex_order(pattern)
    u0 = order[0]
    R = (
        gc.degrees.filter(F.col("deg") >= pattern.degree(u0))
        .select(F.col("v").alias(_c(u0)))
        .localCheckpoint()
    )
    rows = R.count()
    metrics.rounds = pattern.n - 1
    # superstep barriers: every partial embedding is re-shuffled
    R, rows = attach_vertices(gc, pattern, R, rows, [u0], order[1:], metrics, bytes_budget)
    if R is None:
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics
    out = R.select(*[_c(u) for u in range(pattern.n)])
    metrics.n_embeddings = rows
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
