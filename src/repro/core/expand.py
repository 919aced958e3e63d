"""The vertex-extension step the baselines grow embeddings with.

The PSgL / TwinTwig / SEED / Crystal baselines (Secs. 7–8) all extend a
partial embedding by one query vertex the same way, as a Spark join:
join the anchor's adjacency, prune by degree, enforce injectivity,
check pattern edges to already matched vertices (``eager``), and apply
symmetry breaking. R-Meef (Sec. 3.2) extends the same way, in numpy
inside each machine's task (``repro.core.rmeef``), deferring its
verification edges (Definition 3's EC set).
"""
from __future__ import annotations

from typing import Iterable, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern


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
