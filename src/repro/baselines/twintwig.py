"""TwinTwig baseline (Lai et al., PVLDB 2015).

Decomposes the pattern into *TwinTwigs* — stars with at most two edges —
computed locally per machine, then assembled with multi-round two-way
joins in MapReduce. Many small units ⇒ many join rounds ⇒ a lot of
shuffled intermediate state, which is exactly what the paper measures
against it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.baselines.joinbase import JoinUnit, run_join_engine, star_cover
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


def twintwig_decomposition(pattern: Pattern) -> list[JoinUnit]:
    """Greedy edge cover by ≤2-edge stars around high-degree vertices."""
    return star_cover(pattern, {tuple(sorted(e)) for e in pattern.edges}, max_leaves=2)


def run_twintwig(
    gc: GraphContext,
    pattern: Pattern,
    query_name: str = "",
    *,
    bytes_budget: int | None = None,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` TwinTwig-style. Returns (embeddings, metrics)."""
    return run_join_engine(
        gc,
        pattern,
        twintwig_decomposition(pattern),
        "twintwig",
        query_name,
        bytes_budget=bytes_budget,
    )
