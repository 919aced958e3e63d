"""The vertex-extension step every engine grows embeddings with.

All engines extend a partial embedding by one query vertex the same
way: gather the anchor's adjacency, prune by degree, enforce
injectivity, check pattern edges to already matched vertices, and apply
symmetry breaking. The rule has two forms:

* :func:`expand` — a Spark join, for the PSgL / TwinTwig / SEED /
  Crystal baselines (Secs. 7–8).
* :func:`expand_rounds` — numpy over the broadcast :class:`Adjacency`,
  inside one machine's task: Algorithm 4's rounds from a set of start
  vertices. R-Meef (Sec. 3.2) runs it once per region group; SM-E runs
  it over the machine's C1 share, every round and no budget. Prop. 1
  puts every vertex of a C1 embedding on the machine, so there every
  edge is decided locally: nothing is fetched and nothing is pending.

Per unit of the execution plan, :func:`expand_rounds` does:

Expand   — gather the pivot's adjacency from the CSR, one leaf at a
           time, applying degree / injectivity / symmetry-breaking
           filters, then check the *locally-verifiable* verification
           edges immediately. Edges whose existence machine ``m`` cannot
           see (neither endpoint owned nor in the group's fetch cache —
           Definition 4's undetermined edges) pass with a pending flag:
           the resulting set is exactly the EC set of Definition 3.
Verify & Filter — distinct pending (v, v') pairs are the verifyE
           requests (the EVI dedupes shared undetermined edges, hence
           *distinct*); failed ECs are filtered.

The fetch cache persists across the rounds, as in the paper. A run
whose EC set's embedding trie overruns the budget stops there.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.emtrie import trie_nodes
from repro.core.metrics import TRIE_NODE_BYTES
from repro.graphs.datasets import Adjacency, GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan


def _c(u: int) -> str:
    """Column of the data vertex matched to query vertex ``u``."""
    return f"u{u}"


def degree_filter(gc: GraphContext, R: DataFrame, col: str, min_deg: int) -> DataFrame:
    """Keep rows whose ``col`` vertex has degree >= ``min_deg``
    (TurboIso-style candidate pruning; the degree table is replicated,
    so it is broadcast)."""
    dg = gc.degrees.select(F.col("v").alias(col), F.col("deg").alias("__dg"))
    return R.join(F.broadcast(dg), col).filter(F.col("__dg") >= min_deg).drop("__dg")


def expand(
    gc: GraphContext,
    R: DataFrame,
    pattern: Pattern,
    matched: Sequence[int],
    u: int,
    anchor: int,
    eager: Iterable[int] = (),
) -> DataFrame:
    """Extend the partial embeddings ``R`` (matched vertices ``matched``)
    by query vertex ``u`` through the adjacency of ``anchor``, keeping
    only rows where the pattern edge ``(w, u)`` exists for every ``w`` in
    ``eager`` (checked in the caller's order)."""
    cu, ca = _c(u), _c(anchor)
    # the edge table is replicated, with each endpoint's degree: one
    # broadcast join extends by the anchor's neighbours that pass u's
    # degree filter and keeps every row in its partition
    adj = gc.edges.filter(F.col("dst_deg") >= pattern.degree(u))
    adj = adj.select(F.col("src").alias(ca), F.col("dst").alias(cu))
    R = R.join(F.broadcast(adj), ca)
    for x in matched:  # injectivity
        R = R.filter(F.col(cu) != F.col(_c(x)))
    for w in eager:
        ew = gc.edges.select(F.col("src").alias(_c(w)), F.col("dst").alias(cu))
        R = R.join(F.broadcast(ew), [_c(w), cu], "left_semi")
    for a, b in pattern.symmetry_breaking_pairs:  # preserved order
        if u in (a, b) and (a if b == u else b) in matched:
            R = R.filter(F.col(_c(a)) < F.col(_c(b)))
    return R


class Record(NamedTuple):
    """What one region group ``g`` of machine ``m`` meters in round ``i``."""

    m: int
    g: int
    i: int
    ec_rows: int  # the EC set's rows, pending edges unverified
    pending_pairs: int  # distinct undetermined (v, v') pairs, over its edges
    trie_nodes: int  # the EC set's embedding trie
    fetched: int  # foreign pivots new to the fetch cache
    fetched_deg: int  # their degree sum
    survivors: int  # last round: rows that pass verification
    final_trie_nodes: int  # last round, measure_compression: their trie


def expand_rounds(
    A: Adjacency,
    pattern: Pattern,
    plan: Plan,
    m: int,
    g: int,
    start: np.ndarray,
    rounds: int,
    bytes_budget: int | None,
    measure_compression: bool,
) -> tuple[list[Record], np.ndarray | None]:
    """Algorithm 4's first ``rounds`` rounds for region group ``g`` (its
    start vertices ``start``) of machine ``m``: one record per round run,
    and the embeddings (columns u0..u{n-1}) — None instead when the group
    stops over budget or before the last round."""
    u0 = plan.units[0].piv
    R = {u0: start}  # data vertex of each matched query vertex, per row
    cached = np.zeros(len(A.owner), bool)  # the (m, g) fetch cache
    records: list[Record] = []
    for i in range(rounds):
        p = plan.units[i].piv
        # ---- fetchV: adjacency of foreign pivots the cache lacks ----
        new = np.unique(R[p]) if i else R[p][:0]
        new = new[(A.owner[new] != m) & ~cached[new]]
        cached[new] = True

        # ---- expand: one leaf at a time ----
        pending: list[tuple[int, int, np.ndarray, np.ndarray]] = []  # x, u, exists, undetermined
        for u in plan.leaf_order(i):
            rows, w = A.neighbors(R[p])
            ok = A.deg[w] >= pattern.degree(u)
            rows, w = rows[ok], w[ok]
            R = {x: c[rows] for x, c in R.items()}
            pending = [(x, y, e[rows], d[rows]) for x, y, e, d in pending]
            keep = np.ones(len(w), bool)
            for c in R.values():  # injectivity
                keep &= c != w
            R[u] = w
            for a, b in pattern.symmetry_breaking_pairs:  # preserved order
                if u in (a, b) and (a if b == u else b) in R:
                    keep &= R[a] < R[b]
            # verification edges incident to u with an earlier endpoint:
            # locally verifiable at m when an endpoint is owned by m or in
            # the fetch cache; locally-failed ECs never materialize
            # (Algorithm 2 line 10)
            for x, _ in plan.verification_edges_for_leaf(i, u):
                v = R[x]
                exists = A.has_edge(v, w)
                undetermined = ~((A.owner[v] == m) | (A.owner[w] == m) | cached[v] | cached[w])
                pending.append((x, u, exists, undetermined))
                keep &= exists | undetermined
            R = {x: c[keep] for x, c in R.items()}
            pending = [(x, y, e[keep], d[keep]) for x, y, e, d in pending]

        # ---- meter the EC set of P_i ----
        n = len(A.owner)
        pairs = sum(len(np.unique(R[x][d] * n + R[y][d])) for x, y, _, d in pending)
        nodes = trie_nodes([R[u] for u in plan.matching_order if u in R])
        # ---- verify & filter ----
        verified = np.ones(len(R[u0]), bool)
        for _, _, exists, _ in pending:
            verified &= exists
        R = {x: c[verified] for x, c in R.items()}
        last = i == plan.rounds - 1
        records.append(Record(
            m, g, i, len(verified), pairs, nodes, len(new), int(A.deg[new].sum()),
            len(R[u0]) if last else 0,
            trie_nodes([R[u] for u in plan.matching_order]) if last and measure_compression else 0,
        ))
        if bytes_budget is not None and nodes * TRIE_NODE_BYTES > bytes_budget:
            return records, None
        if not len(R[u0]):
            return records, np.zeros((0, pattern.n), np.int64)
    if rounds < plan.rounds:
        return records, None
    return records, np.column_stack([R[u] for u in range(pattern.n)])
