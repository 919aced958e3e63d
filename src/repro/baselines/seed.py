"""SEED baseline (Lai et al., PVLDB 2016).

Upgrade of TwinTwig: decomposition units may be cliques (triangles) as
well as unbounded stars, computable locally thanks to its star-clique
preserved partition, so there are fewer join rounds. Still a
synchronous shuffle-everything join system — less intermediate state
than TwinTwig, more than RADS.
"""
from __future__ import annotations

import itertools

from pyspark.sql import DataFrame

from repro.baselines.joinbase import JoinUnit, run_join_engine, star_cover
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


def seed_decomposition(pattern: Pattern) -> list[JoinUnit]:
    """Greedy: triangle units while a triangle covers ≥2 uncovered
    edges, then unbounded stars for the remaining edges."""
    uncovered = {tuple(sorted(e)) for e in pattern.edges}
    units: list[JoinUnit] = []
    tris = pattern.cliques(3)
    while True:
        best, best_gain = None, 1
        for t in tris:
            gain = sum(
                1
                for a, b in itertools.combinations(t, 2)
                if tuple(sorted((a, b))) in uncovered
            )
            if gain > best_gain:
                best, best_gain = t, gain
        if best is None:
            break
        edges = tuple(itertools.combinations(best, 2))
        units.append(JoinUnit(tuple(best), edges))
        for a, b in edges:
            uncovered.discard(tuple(sorted((a, b))))
    return units + star_cover(pattern, uncovered)


def run_seed(
    gc: GraphContext,
    pattern: Pattern,
    query_name: str = "",
    *,
    bytes_budget: int | None = None,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` SEED-style. Returns (embeddings, metrics)."""
    return run_join_engine(
        gc,
        pattern,
        seed_decomposition(pattern),
        "seed",
        query_name,
        bytes_budget=bytes_budget,
    )
