"""Single-Machine Enumeration (SM-E) and the border-distance split.

Proposition 1: if ``Span_P(u_start) <= BD(v)`` then every embedding
mapping u_start→v is entirely local to v's machine, so it can be found
by a single-machine algorithm over the partition alone. BD is a fact of
the partitioned graph, not of the query: ``build_context`` computes it
once (a multi-source BFS from the border vertices over local edges) and
keeps it on the driver as ``gc.bd_np``, so the split is a filter over
the driver's degree and BD arrays and costs no Spark job. Candidates
with ``bd < 0`` (no border reachable) or ``bd >= span`` form C1 and are
enumerated per machine by a TurboIso-lite backtracking enumerator over
the machine's local adjacency.

:func:`per_machine` is the operator both SM-E and R-Meef run on: each
machine's work inside a Spark task, over the graph's broadcast adjacency.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.emtrie import trie_nodes
from repro.core.expand import _c
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import Adjacency, GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan

#: most rows in one pandas batch a per-machine task returns
BATCH_ROWS = 1 << 17

#: what a per-machine task yields: embedding blocks and meter records
Output = Union[np.ndarray, tuple]


def per_machine(
    gc: GraphContext,
    vertices: np.ndarray,
    task: Callable[[int, Adjacency, np.ndarray], Iterator[Output]],
    n: int,
) -> tuple[DataFrame, list[tuple]]:
    """Run ``task(m, A, v_m)`` once per machine ``m`` owning some of
    ``vertices`` (``v_m``: its share, ascending), inside Spark tasks over
    the broadcast adjacency ``A``. The task yields blocks of embeddings
    (int arrays, columns u0..u{n-1}) and meter records (int tuples); both
    leave the task as rows of one ``mapInPandas`` output, the records in
    an ``__rec`` column that is null on embedding rows. Returns the
    embeddings, checkpointed, and the records, on the driver: two
    actions of one Spark job each, and no shuffle. ``task`` ships to the
    workers, so it must not capture the unpicklable GraphContext."""
    cols = [_c(u) for u in range(n)]
    vertices = np.sort(vertices)
    owner = gc.owner_np[vertices]
    share = {int(m): vertices[owner == m] for m in np.unique(owner)}
    bc = gc.adjacency

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for m in pdf["id"].tolist():
                if m not in share:
                    continue
                for out in task(m, bc.value, share[m]):
                    if isinstance(out, tuple):  # a record, on a row of zeros
                        rec = [0] * n + [[int(x) for x in out]]
                        yield pd.DataFrame([rec], columns=cols + ["__rec"])
                        continue
                    for s in range(0, len(out), BATCH_ROWS):
                        block = pd.DataFrame(out[s : s + BATCH_ROWS], columns=cols, dtype="int64")
                        yield block.assign(__rec=None)

    schema = ", ".join(f"{c} long" for c in cols) + ", __rec array<long>"
    # every Python task pays a fixed start-up latency, so the machines
    # share one wave of tasks: consecutive machine ids per partition
    m = gc.n_machines
    k = min(m, gc.spark.sparkContext.defaultParallelism)
    out = gc.spark.range(0, m, 1, k).mapInPandas(run, schema).localCheckpoint()
    rec = F.col("__rec")
    records = [tuple(r[0]) for r in out.filter(rec.isNotNull()).select(rec).collect()]
    return out.filter(rec.isNull()).select(*cols), records


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


def sme_enumerate(
    gc: GraphContext, pattern: Pattern, plan: Plan, c1: np.ndarray, metrics: RunMetrics
) -> DataFrame:
    """Run SM-E per machine over the C1 vertices ``c1``.

    Each machine runs the backtracking enumerator from its C1
    candidates over its partition-induced subgraph — no cross-machine
    data, exactly Prop. 1's promise. Returns the embeddings, with one
    column per query vertex (u0..u{n-1}); ``metrics.extras`` gets their
    count (``sme_embeddings``) and the node count of their embedding
    trie in matching order (``sme_trie_nodes``).
    """
    order = list(plan.matching_order)

    def enumerate_local(m: int, A: Adjacency, cands: np.ndarray) -> Iterator[Output]:
        found = enumerate_backtracking(A.local(m), pattern, order, cands.tolist())
        rows = np.array(list(found), dtype=np.int64).reshape(-1, pattern.n)
        yield rows
        yield len(rows), trie_nodes(rows.T[order])

    df, records = per_machine(gc, c1, enumerate_local, pattern.n)
    metrics.extras["sme_embeddings"] = sum(r[0] for r in records)
    metrics.extras["sme_trie_nodes"] = sum(r[1] for r in records)
    return df
