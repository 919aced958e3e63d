"""Crystal baseline (Qiao et al., PVLDB 2017).

Offline, it materializes a clique index of the data graph (the paper's
Table 2 shows it is many times larger than the graph itself); online, a
query's largest clique ("core") is answered straight from the index and
the remaining vertices ("buds"/crystals) are attached with MapReduce
joins. Strong on clique-rich queries (q2/q4/q5, Fig. 14), weak on
triangle-free ones — the shape our reproduction must preserve.

Substitution note (DESIGN.md §7): the real index stores compressed
per-vertex clique codes; we materialize plain k-clique lists (k=3,4) as
parquet and measure those. Ratios are reported honestly against ours.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import itertools

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.common import attach_vertices, check_budget
from repro.core.expand import _c, degree_filter
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


@dataclass
class CliqueIndex:
    """Materialized k-clique lists + on-disk sizes (Table 2)."""

    cliques: dict[int, DataFrame] = field(default_factory=dict)
    index_bytes: int = 0
    graph_bytes: int = 0
    build_s: float = 0.0

    def ratio(self) -> float:
        return self.index_bytes / max(1, self.graph_bytes)


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def grow_cliques(gc: GraphContext, max_k: int = 4) -> dict[int, DataFrame]:
    """Lazy k-clique DataFrames for k = 2..``max_k``, columns c0 < c1 < …:
    each (k-1)-clique grows by a larger neighbour of its last member that
    is adjacent to every other member. All joins are against the
    replicated edge table, so all are broadcast joins."""

    def adj(a: str, b: str) -> DataFrame:
        return F.broadcast(gc.edges.select(F.col("src").alias(a), F.col("dst").alias(b)))

    canon = gc.edges.filter(F.col("src") < F.col("dst"))
    dfs = {2: canon.select(F.col("src").alias("c0"), F.col("dst").alias("c1"))}
    for k in range(3, max_k + 1):
        last, new = f"c{k - 2}", f"c{k - 1}"
        grown = dfs[k - 1].join(adj(last, new), last).filter(F.col(new) > F.col(last))
        for j in range(k - 2):  # new vertex adjacent to every clique member
            grown = grown.join(adj(f"c{j}", new), [f"c{j}", new], "left_semi")
        dfs[k] = grown
    return dfs


def build_clique_index(gc: GraphContext, out_dir: str, max_k: int = 4) -> CliqueIndex:
    """Enumerate and persist all k-cliques (k ≤ ``max_k``) of the data
    graph; returns the loaded index with measured parquet sizes."""
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    idx = CliqueIndex()
    dfs = grow_cliques(gc, max_k)
    gpath = os.path.join(out_dir, "graph.parquet")
    dfs[2].withColumnsRenamed({"c0": "src", "c1": "dst"}).write.mode("overwrite").parquet(gpath)
    idx.graph_bytes = _dir_bytes(gpath)
    for k in range(3, max_k + 1):
        p = os.path.join(out_dir, f"cliques_{k}.parquet")
        dfs[k].write.mode("overwrite").parquet(p)
        idx.index_bytes += _dir_bytes(p)
        idx.cliques[k] = gc.spark.read.parquet(p)
    idx.cliques[2] = dfs[2]
    idx.build_s = time.perf_counter() - t0
    return idx


def _core_from_index(
    gc: GraphContext, pattern: Pattern, index: CliqueIndex, core: tuple[int, ...]
) -> DataFrame:
    """Embeddings of the core clique, loaded from the index: one select
    per vertex-permutation of the (ascending-sorted) clique row, with
    permutations statically pruned by the symmetry-breaking pairs."""
    q = len(core)
    df = index.cliques[q]
    sb_in_core = [
        (a, b) for a, b in pattern.symmetry_breaking_pairs if a in core and b in core
    ]
    parts = []
    for perm in itertools.permutations(range(q)):
        # clique columns c0 < c1 < ... ; perm[i] = index column for core[i]
        posn = {core[i]: perm[i] for i in range(q)}
        if any(posn[a] > posn[b] for a, b in sb_in_core):
            continue  # statically violates f(a) < f(b)
        parts.append(
            df.select(*[F.col(f"c{posn[v]}").alias(_c(v)) for v in core])
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    for v in core:  # degree filter (clique membership only guarantees q-1)
        out = degree_filter(gc, out, _c(v), pattern.degree(v))
    return out


def run_crystal(
    gc: GraphContext,
    pattern: Pattern,
    index: CliqueIndex,
    query_name: str = "",
    *,
    bytes_budget: int | None = None,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern``: core clique from the index, remaining
    vertices attached by shuffle joins. Returns (embeddings, metrics)."""
    t0 = time.perf_counter()
    metrics = RunMetrics("crystal", query_name or pattern.name, gc.name)
    core = pattern.max_clique()
    if len(core) > max(index.cliques):
        core = pattern.cliques(max(index.cliques))[0]
    metrics.extras["core_size"] = len(core)

    if len(core) >= 3:
        R = _core_from_index(gc, pattern, index, core)
        matched = list(core)
    else:  # triangle-free: start from the heaviest edge, like a 2-clique
        a, b = max(
            pattern.edges, key=lambda e: pattern.degree(e[0]) + pattern.degree(e[1])
        )
        R = gc.edges.filter(
            (F.col("src_deg") >= pattern.degree(a)) & (F.col("dst_deg") >= pattern.degree(b))
        ).select(F.col("src").alias(_c(a)), F.col("dst").alias(_c(b)))
        for x, y in pattern.symmetry_breaking_pairs:
            if {x, y} <= {a, b}:
                R = R.filter(F.col(_c(x)) < F.col(_c(y)))
        matched = [a, b]

    R = R.localCheckpoint()
    rows = R.count()
    metrics.rounds = pattern.n - len(matched)
    if check_budget(metrics, rows, len(matched), bytes_budget, "core", gc.n_machines):
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    remaining = [u for u in range(pattern.n) if u not in matched]
    # BFS attachment order from the core
    order: list[int] = []
    frontier = set(matched)
    while remaining:
        u = next(
            x for x in sorted(remaining, key=lambda x: (-pattern.degree(x), x))
            if pattern.adj[x] & frontier
        )
        order.append(u)
        frontier.add(u)
        remaining.remove(u)
    R, rows = attach_vertices(gc, pattern, R, rows, matched, order, metrics, bytes_budget)
    if R is None:
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    out = R.select(*[_c(u) for u in range(pattern.n)])
    metrics.n_embeddings = rows
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
