"""Single-Machine Enumeration (SM-E) and the border-distance split.

Proposition 1: if ``Span_P(u_start) <= BD(v)`` then every embedding
mapping u_start→v is entirely local to v's machine, so it can be found
by any single-machine algorithm over the partition alone. BD is a fact
of the partitioned graph, not of the query: ``build_context`` computes
it once (a multi-source BFS from the border vertices over local edges)
and keeps it on the driver as ``gc.bd_np``, so the split is a filter
over the driver's degree and BD arrays and costs no Spark job.
Candidates with ``bd < 0`` (no border reachable) or ``bd >= span`` form
C1. Each machine enumerates its C1 share with R-Meef's own numpy kernel,
:func:`repro.core.expand.expand_rounds`: every vertex of those
embeddings is its own, so the kernel decides every edge on the spot.

:func:`per_machine` is the operator both SM-E and R-Meef run on: each
machine's work inside a Spark task, over the graph's broadcast adjacency.
:func:`sme_phase` builds SM-E's phase for it; the engine decides which
phases share a Spark job.
"""
from __future__ import annotations

from typing import Callable, Iterator, Union

import numpy as np
import pandas as pd
from pyspark.accumulators import AccumulatorParam
from pyspark.sql import DataFrame

from repro.core.expand import Record, _c, expand_rounds
from repro.core.metrics import RunMetrics
from repro.graphs.datasets import Adjacency, GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan

#: most rows in one pandas batch a per-machine task returns
BATCH_ROWS = 1 << 17

#: what a per-machine task yields: embedding blocks and meter records
Output = Union[np.ndarray, tuple]

#: one machine's share of a phase: ``task(m, A, v_m)``
Task = Callable[[int, Adjacency, np.ndarray], Iterator[Output]]

#: a per-machine phase: its vertices, its task, and what gets its records
Phase = tuple[np.ndarray, Task, Callable[[list[Record]], None]]


class _Concat(AccumulatorParam):
    """Accumulates lists by concatenation."""

    def zero(self, value: list) -> list:
        return []

    def addInPlace(self, a: list, b: list) -> list:
        a.extend(b)
        return a


def per_machine(gc: GraphContext, phases: list[Phase], n: int) -> DataFrame:
    """Run the phases ``(vertices, task, done)`` in one Spark job over the
    broadcast adjacency ``A``: each machine ``m`` runs ``task(m, A, v_m)``
    of every phase in order, ``v_m`` being its share of the phase's
    ``vertices``, ascending. A task yields blocks of embeddings (int
    arrays, columns u0..u{n-1}) and meter records (:class:`Record`
    tuples). Each phase's ``done`` gets its records; the embeddings of
    every phase are returned, checkpointed. The records come back
    through an accumulator, so the checkpoint is the only action. When
    no machine owns a vertex of any phase, no job runs. A ``task`` ships
    to the workers, so it must not capture the unpicklable
    GraphContext."""
    cols = [_c(u) for u in range(n)]
    schema = ", ".join(f"{c} long" for c in cols)
    tasks, shares = [], []
    for vertices, task, _ in phases:
        vertices = np.sort(vertices)
        owner = gc.owner_np[vertices]
        tasks.append(task)
        shares.append({int(m): vertices[owner == m] for m in np.unique(owner)})
    if not any(shares):
        for _, _, done in phases:
            done([])
        return gc.spark.createDataFrame([], schema)
    bc = gc.adjacency
    # a result stage's accumulator updates are applied once per partition
    acc = gc.spark.sparkContext.accumulator([], _Concat())

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for m in pdf["id"].tolist():
                for p, (task, share) in enumerate(zip(tasks, shares)):
                    if m not in share:
                        continue
                    for out in task(m, bc.value, share[m]):
                        if isinstance(out, tuple):
                            acc.add([(p, tuple(int(x) for x in out))])
                            continue
                        for s in range(0, len(out), BATCH_ROWS):
                            yield pd.DataFrame(out[s : s + BATCH_ROWS], columns=cols, dtype="int64")

    # every Python task pays a fixed start-up latency, so the machines
    # share one wave of tasks: consecutive machine ids per partition
    m = gc.n_machines
    k = min(m, gc.spark.sparkContext.defaultParallelism)
    out = gc.spark.range(0, m, 1, k).mapInPandas(run, schema).localCheckpoint()
    records: list[list[Record]] = [[] for _ in phases]
    for p, rec in acc.value:
        records[p].append(Record(*rec))
    for (_, _, done), recs in zip(phases, records):
        done(recs)
    return out


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


def sme_phase(
    pattern: Pattern, plan: Plan, c1: np.ndarray, metrics: RunMetrics
) -> Phase:
    """SM-E's :func:`per_machine` phase over the C1 vertices ``c1``.

    Each machine runs every round of ``plan`` from its C1 candidates,
    with no budget — no cross-machine data, exactly Prop. 1's promise.
    Its embeddings have one column per query vertex (u0..u{n-1}). Once
    the phase has run, ``metrics.extras`` has their count
    (``sme_embeddings``) and the node count of their embedding trie in
    matching order (``sme_trie_nodes``).
    """

    def enumerate_local(m: int, A: Adjacency, cands: np.ndarray) -> Iterator[Output]:
        records, rows = expand_rounds(A, pattern, plan, m, 0, cands, plan.rounds, None, True)
        yield rows
        yield records[-1]

    def count(records: list[Record]) -> None:
        metrics.extras["sme_embeddings"] = sum(r.survivors for r in records)
        metrics.extras["sme_trie_nodes"] = sum(r.final_trie_nodes for r in records)

    return c1, enumerate_local, count
