"""Shared machinery for the join-based baselines (TwinTwig, SEED).

Both decompose the pattern into small units whose embeddings each
machine computes locally from its adjacency lists (TwinTwig: ≤2-edge
stars; SEED: stars + triangle/clique units over its star-clique
preserved partition), then assemble the full pattern with multi-round
MapReduce joins. Every join round shuffles *both* inputs — that is the
communication and memory behaviour the paper's Figures 8–11 punish.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.common import check_budget, shuffle_bytes
from repro.core.expand import _c, expand
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


@dataclass(frozen=True)
class JoinUnit:
    """A decomposition unit: ``vertices`` in build order and the unit's
    own ``edges`` (star edges, or all pairs for a clique unit)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def star_cover(
    pattern: Pattern, uncovered: set[tuple[int, int]], max_leaves: int | None = None
) -> list[JoinUnit]:
    """Greedy cover of the ``uncovered`` edges (sorted pairs) by stars:
    each centre is the vertex with the most uncovered edges (ties: higher
    pattern degree, then lower id), and its uncovered edges become stars
    of at most ``max_leaves`` leaves each (None: one star), in leaf order."""
    uncovered = set(uncovered)
    units: list[JoinUnit] = []
    while uncovered:
        cnt = {u: 0 for u in range(pattern.n)}
        for a, b in uncovered:
            cnt[a] += 1
            cnt[b] += 1
        piv = max(range(pattern.n), key=lambda u: (cnt[u], pattern.degree(u), -u))
        leaves = sorted((b if a == piv else a) for a, b in uncovered if piv in (a, b))
        step = max_leaves or len(leaves)
        for k in range(0, len(leaves), step):
            chunk = leaves[k : k + step]
            units.append(JoinUnit((piv, *chunk), tuple((piv, lf) for lf in chunk)))
        uncovered -= {tuple(sorted((piv, lf))) for lf in leaves}
    return units


def build_unit_df(gc: GraphContext, pattern: Pattern, unit: JoinUnit) -> DataFrame:
    """Embeddings of the unit sub-pattern (columns u<v> for its vertices).

    Built vertex-at-a-time over the edge table, checking only the
    *unit's own* edges (a star unit does not see sibling edges of P —
    they belong to other units, per the TwinTwig/SEED decompositions),
    plus degree filters and symmetry-breaking pairs internal to the unit.
    """
    vs = unit.vertices
    first = vs[0]
    R = gc.degrees.filter(F.col("deg") >= pattern.degree(first)).select(
        F.col("v").alias(_c(first))
    )
    matched = [first]
    ueset = {tuple(sorted(e)) for e in unit.edges}
    for u in vs[1:]:
        anchor = next(w for w in matched if tuple(sorted((w, u))) in ueset)
        eager = [
            x for x in matched if x != anchor and tuple(sorted((x, u))) in ueset
        ]
        R = expand(gc, R, pattern, matched, u, anchor, eager)
        matched.append(u)
    return R


def order_units(units: list[JoinUnit]) -> list[JoinUnit]:
    """Reorder so each unit shares a vertex with the assembled prefix."""
    rest = list(units)
    out = [rest.pop(0)]
    placed = set(out[0].vertices)
    while rest:
        for k, u in enumerate(rest):
            if placed & set(u.vertices):
                out.append(rest.pop(k))
                placed |= set(u.vertices)
                break
        else:  # disconnected decomposition would be a bug upstream
            raise ValueError("units do not connect")
    return out


def run_join_engine(
    gc: GraphContext,
    pattern: Pattern,
    units: list[JoinUnit],
    engine: str,
    query_name: str = "",
    *,
    bytes_budget: int | None = None,
) -> tuple[DataFrame | None, RunMetrics]:
    """Left-deep multi-round join of the unit embeddings, MapReduce cost
    model: both join inputs shuffle every round."""
    t0 = time.perf_counter()
    metrics = RunMetrics(engine, query_name or pattern.name, gc.name)
    units = order_units(units)
    metrics.rounds = len(units) - 1

    R = build_unit_df(gc, pattern, units[0]).localCheckpoint()
    matched = list(units[0].vertices)
    rows = R.count()
    if check_budget(metrics, rows, len(matched), bytes_budget, "unit 0", gc.n_machines):
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    for unit in units[1:]:
        U = build_unit_df(gc, pattern, unit).localCheckpoint()
        urows = U.count()
        if check_budget(metrics, urows, len(unit.vertices), bytes_budget, "unit build", gc.n_machines):
            metrics.elapsed_s = time.perf_counter() - t0
            return None, metrics
        shared = [v for v in unit.vertices if v in matched]
        new = [v for v in unit.vertices if v not in matched]
        metrics.add_comm(
            "shuffle",
            shuffle_bytes(rows, len(matched), gc.n_machines)
            + shuffle_bytes(urows, len(unit.vertices), gc.n_machines),
        )
        if new:
            R = R.join(U, [_c(v) for v in shared])
            for v in new:
                for x in matched:
                    R = R.filter(F.col(_c(v)) != F.col(_c(x)))
            for a, b in pattern.symmetry_breaking_pairs:
                both_new = (a in new or b in new) and (
                    a in new + matched and b in new + matched
                )
                if both_new:
                    R = R.filter(F.col(_c(a)) < F.col(_c(b)))
            matched += new
        else:
            R = R.join(U, [_c(v) for v in shared], "left_semi")
        R = R.localCheckpoint()
        rows = R.count()
        if check_budget(metrics, rows, len(matched), bytes_budget, "join round", gc.n_machines):
            metrics.elapsed_s = time.perf_counter() - t0
            return None, metrics

    out = R.select(*[_c(u) for u in range(pattern.n)])
    metrics.n_embeddings = rows
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
