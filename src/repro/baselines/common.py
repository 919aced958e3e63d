"""Shared cost model and matching order for the baseline engines.

All baselines are *synchronous shuffle* systems: their communication
model charges every materialized intermediate that crosses the round
barrier with ``rows × width × 8 × (m-1)/m`` bytes (uniformly hashed
rows, so a (m-1)/m fraction leaves its machine). RADS never pays this —
that asymmetry is the paper's headline result.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.expand import expand
from repro.core.metrics import VERTEX_BYTES, RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


def shuffle_bytes(rows: int, width_cols: int, m: int) -> int:
    """Bytes a hash-shuffle of ``rows`` embeddings of ``width_cols``
    vertices moves across the network of ``m`` machines."""
    return int(rows * width_cols * VERTEX_BYTES * (m - 1) / max(1, m))


def bfs_vertex_order(pattern: Pattern, start: int | None = None) -> list[int]:
    """Breadth-first matching order over the pattern from ``start``
    (default: a maximum-degree vertex) — PSgL's traversal order."""
    if start is None:
        start = max(range(pattern.n), key=pattern.degree)
    order = [start]
    seen = {start}
    q = [start]
    while q:
        x = q.pop(0)
        for y in sorted(pattern.adj[x], key=lambda v: (-pattern.degree(v), v)):
            if y not in seen:
                seen.add(y)
                order.append(y)
                q.append(y)
    return order


def check_budget(
    metrics: RunMetrics,
    rows: int,
    width: int,
    bytes_budget: int | None,
    what: str,
    m: int = 1,
) -> bool:
    """Record the intermediate; True (⇒ abort) when the *per-machine*
    share (rows hash uniformly over ``m`` machines) exceeds the
    simulated per-machine memory — the paper's OOM condition."""
    metrics.see_intermediate(rows, width)
    per_machine = rows * width * VERTEX_BYTES / max(1, m)
    if bytes_budget is not None and per_machine > bytes_budget:
        metrics.failed = True
        metrics.fail_reason = (
            f"{what}: {rows} rows x {width} cols = "
            f"{per_machine / 1e6:.0f}MB/machine over budget"
        )
        return True
    return False


def attach_vertices(
    gc: GraphContext,
    pattern: Pattern,
    R: DataFrame,
    rows: int,
    matched: list[int],
    order: list[int],
    metrics: RunMetrics,
    bytes_budget: int | None,
) -> tuple[DataFrame | None, int]:
    """Match the query vertices ``order`` onto ``R`` (``rows`` embeddings
    of ``matched``) one at a time, each a synchronous round: every
    partial embedding is re-shuffled to the machine of the anchor, the
    first matched neighbour, and every other pattern edge to a matched
    vertex is checked on the spot. Returns the embeddings and their row
    count; the embeddings are None once an intermediate overruns the
    budget."""
    matched = list(matched)
    for u in order:
        metrics.add_comm("shuffle", shuffle_bytes(rows, len(matched), gc.n_machines))
        anchor = next(w for w in matched if w in pattern.adj[u])
        eager = [w for w in pattern.adj[u] if w in matched and w != anchor]
        R = expand(gc, R, pattern, matched, u, anchor, eager).localCheckpoint()
        matched.append(u)
        rows = R.count()
        if check_budget(metrics, rows, len(matched), bytes_budget, f"expand {u}", gc.n_machines):
            return None, rows
    return R, rows
