"""Single-Machine Enumeration (SM-E) and the border-distance split.

Proposition 1: if ``Span_P(u_start) <= BD(v)`` then every embedding
mapping u_start→v is entirely local to v's machine, so it can be found
by a single-machine algorithm over the partition alone. BD is a fact of
the partitioned graph, not of the query: ``build_context`` computes it
once (a multi-source BFS from the border vertices over local edges) and
keeps it on the driver as ``gc.bd_np``, so the split is a filter over
the driver's degree and BD arrays and costs no Spark job. Candidates
with ``bd < 0`` (no border reachable) or ``bd >= span`` form C1 and are
enumerated per machine by a TurboIso-lite backtracking enumerator inside
``applyInPandas``.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.expand import _c
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan


def local_edges(gc: GraphContext) -> DataFrame:
    """(src, dst, machine): edges whose both endpoints share a machine."""
    return gc.edges_o.filter(F.col("src_m") == F.col("dst_m")).select(
        "src", "dst", F.col("src_m").alias("machine")
    )


def candidate_split(
    gc: GraphContext, pattern: Pattern, u_start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids of (C1, C_rest) for the starting query vertex.

    Candidates are the vertices passing the degree filter. C1 are those
    with BD >= span or no reachable border (Prop. 1 ⇒ handled by SM-E);
    the rest go to the distributed R-Meef phase.
    """
    v = np.flatnonzero(gc.deg_np >= pattern.degree(u_start))
    bd = gc.bd_np[v]
    far = (bd < 0) | (bd >= pattern.span(u_start))
    return v[far], v[~far]


def split_candidates(
    gc: GraphContext, pattern: Pattern, u_start: int
) -> tuple[DataFrame, DataFrame]:
    """(C1, C_rest) of ``candidate_split`` as (v, machine) local relations."""
    c1, rest = candidate_split(gc, pattern, u_start)
    return gc.vertex_frame(c1), gc.vertex_frame(rest)


# ---------------- backtracking enumerator (TurboIso-lite) ----------------

def enumerate_backtracking(
    adj: dict[int, set[int]],
    pattern: Pattern,
    order: Sequence[int],
    start_candidates: Iterable[int],
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings (tuples indexed by query-vertex id) of ``pattern``
    in the graph ``adj``, matching along ``order`` (order[0] ranges over
    ``start_candidates``). Applies injectivity, degree filtering, every
    pattern edge, and the pattern's symmetry-breaking constraints —
    the IsJoinable/SubgraphSearch structure of the generic backtracking
    framework the paper builds on.
    """
    n = pattern.n
    pos = {u: i for i, u in enumerate(order)}
    back_nbrs = [[w for w in pattern.adj[order[i]] if pos[w] < i] for i in range(n)]
    sb_at = [
        [
            (a, b)
            for a, b in pattern.symmetry_breaking_pairs
            if max(pos[a], pos[b]) == i
        ]
        for i in range(n)
    ]
    f: dict[int, int] = {}
    used: set[int] = set()
    empty: set[int] = set()

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(f[u] for u in range(n))
            return
        u = order[i]
        cand: set[int] | None = None
        for w in back_nbrs[i]:
            s = adj.get(f[w], empty)
            cand = set(s) if cand is None else cand & s
        if not cand:
            return
        dq = pattern.degree(u)
        for v in sorted(cand):
            if v in used or len(adj.get(v, empty)) < dq:
                continue
            f[u] = v
            ok = all(f[a] < f[b] for a, b in sb_at[i])
            if ok:
                used.add(v)
                yield from rec(i + 1)
                used.discard(v)
            del f[u]

    u0 = order[0]
    d0 = pattern.degree(u0)
    for v in sorted(set(start_candidates)):
        if len(adj.get(v, empty)) < d0:
            continue
        f[u0] = v
        used.add(v)
        yield from rec(1)
        used.discard(v)
        del f[u0]


def per_machine_local(
    gc: GraphContext,
    candidates: DataFrame,
    fn: Callable[[int, dict[int, set[int]], list[int]], pd.DataFrame],
    schema: str,
) -> DataFrame:
    """Run ``fn(machine, adj, cands)`` once per machine via
    ``applyInPandas``: ``adj`` is the machine's local adjacency (edges
    with both endpoints on it), ``cands`` its (machine, v) rows of
    ``candidates``; ``fn`` returns rows of ``schema``. ``fn`` ships to
    the workers, so it must not capture the unpicklable GraphContext."""
    payload = local_edges(gc).select(
        "machine", F.col("src").alias("a"), F.col("dst").alias("b"),
        F.lit(0).alias("kind"),
    ).unionByName(
        candidates.select(
            "machine", F.col("v").alias("a"), F.lit(-1).alias("b"),
            F.lit(1).alias("kind"),
        )
    )

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        edges = pdf[pdf["kind"] == 0]
        adj: dict[int, set[int]] = {}
        for s, d in zip(edges["a"].to_numpy(), edges["b"].to_numpy()):
            adj.setdefault(int(s), set()).add(int(d))
        cands = [int(v) for v in pdf.loc[pdf["kind"] == 1, "a"]]
        return fn(int(pdf["machine"].iloc[0]), adj, cands)

    return payload.groupBy("machine").applyInPandas(run, schema=schema)


def sme_enumerate(
    gc: GraphContext, pattern: Pattern, plan: Plan, c1: DataFrame
) -> DataFrame:
    """Run SM-E per machine over C1.

    Each machine runs the backtracking enumerator from its C1
    candidates over its partition-induced subgraph — no cross-machine
    data, exactly Prop. 1's promise. Returns embeddings with one column
    per query vertex (u0..u{n-1}).
    """
    cols = [_c(u) for u in range(pattern.n)]
    order = plan.matching_order

    def enumerate_local(machine: int, adj: dict[int, set[int]], cands: list[int]):
        rows = list(enumerate_backtracking(adj, pattern, order, cands))
        return pd.DataFrame(rows, columns=cols, dtype="int64")

    schema = ", ".join(f"{c} long" for c in cols)
    return per_machine_local(gc, c1, enumerate_local, schema)
