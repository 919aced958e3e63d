"""R-Meef: region-grouped multi-round expand / verify & filter (Sec. 3.2).

Each machine runs its share of the distributed phase inside a Spark
task over the graph's broadcast adjacency (``sme.per_machine``), as in
Algorithm 4: it region-groups its start candidates (Algorithm 3 over
its local adjacency, seed ``m``) and runs every round of one group after
another with :func:`repro.core.expand.expand_rounds`, in numpy. Every
row descends from one start vertex, so it keeps its home machine ``m``
and group ``g`` for its whole life: intermediate results never move
between machines, which is the paper's core claim.

The fetch cache is per (m, g), persists across the group's rounds as in
the paper, and lives in the machine's task. A group whose EC set's
embedding trie overruns the budget stops there, and so do the later
groups of its task.

Communication metering (DESIGN.md §2): the task returns one record per
(m, g, round) and the driver applies them round by round. fetchV =
adjacency bytes of newly fetched foreign pivots; verifyE = 17 bytes per
distinct pending pair. The start vertex fixes m and g, so every count
adds up over tasks.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator

import numpy as np
from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes
from repro.core.expand import Record, expand_rounds
from repro.core.metrics import (
    TRIE_NODE_BYTES,
    VERIFY_PAIR_BYTES,
    VERTEX_BYTES,
    RunMetrics,
)
from repro.core.regions import region_groups
from repro.core.sme import Output, per_machine
from repro.graphs.datasets import Adjacency, GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan


def run_rmeef(
    gc: GraphContext,
    pattern: Pattern,
    plan: Plan,
    start: np.ndarray,
    metrics: RunMetrics,
    *,
    max_group_size: int | None = None,
    bytes_budget: int | None = None,
    measure_compression: bool = False,
) -> DataFrame | None:
    """Run the distributed phase from the dp0.piv candidates ``start``;
    returns the embedding DataFrame (columns u0..u{n-1}) or None when
    the budget was exceeded (``metrics.failed`` is set).
    ``max_group_size`` caps Algorithm 3's region groups (None: one group
    per machine). ``metrics.extras["dist_embeddings"]`` gets the number
    of embeddings found."""
    metrics.rounds = plan.rounds

    def machine(m: int, A: Adjacency, cands: np.ndarray) -> Iterator[Output]:
        if max_group_size is None:
            groups = [cands]
        else:
            groups = region_groups(A.local(m), cands, max_group_size, seed=m)
        rounds = plan.rounds
        for g, members in enumerate(groups):
            records, rows = expand_rounds(
                A, pattern, plan, m, g, members, rounds, bytes_budget, measure_compression
            )
            yield from records
            if rows is not None:
                yield rows
            else:  # stopped early: later groups meter no further
                rounds = min(rounds, len(records))

    df, collected = per_machine(gc, start, machine, pattern.n)
    records = [Record(*r) for r in collected]
    if max_group_size is not None:  # every group meters its round 0
        metrics.extras["n_region_groups"] = sum(r.i == 0 for r in records)
    if not _meter(metrics, plan, records, bytes_budget, measure_compression):
        return None
    return df


def _meter(
    metrics: RunMetrics,
    plan: Plan,
    records: list[Record],
    bytes_budget: int | None,
    measure_compression: bool,
) -> bool:
    """Apply the records round by round, in Algorithm 4's order: fetchV,
    the EC set, the budget check, verifyE. False when a region group's
    trie overran the budget (``metrics.failed`` is set)."""
    ex = metrics.extras
    width = 1  # matched query vertices
    for i, unit in enumerate(plan.units):
        width += len(unit.leaves)
        rs = [r for r in records if r.i == i]
        fetched = sum(r.fetched for r in rs)
        if fetched:
            deg = sum(r.fetched_deg for r in rs)
            metrics.add_comm("fetchV", (deg + 2 * fetched) * VERTEX_BYTES)
        # memory is per (machine, region group); EL/ET and the peak EC
        # set are per region group, summed over machines
        g_rows: Counter[int] = Counter()
        g_nodes: Counter[int] = Counter()
        for r in rs:
            g_rows[r.g] += r.ec_rows
            g_nodes[r.g] += r.trie_nodes
        for rows in g_rows.values():
            metrics.see_intermediate(rows, width)
        peak = max((r.trie_nodes for r in rs), default=0) * TRIE_NODE_BYTES
        ex["peak_group_trie_bytes"] = max(ex.get("peak_group_trie_bytes", 0), peak)
        if measure_compression:
            el = list_bytes(max(g_rows.values(), default=0), width)
            et = max(g_nodes.values(), default=0) * TRIE_NODE_BYTES
            ex["el_bytes"] = max(ex.get("el_bytes", 0), el)
            ex["et_bytes"] = max(ex.get("et_bytes", 0), et)
        # RADS stores intermediates in the embedding trie (Sec. 5), so
        # the per-machine memory check compares the *trie* size of the
        # group's EC set against the budget — this is what lets RADS
        # survive hub-heavy rounds that would OOM as flat lists
        if bytes_budget is not None and peak > bytes_budget:
            metrics.failed = True
            metrics.fail_reason = (
                f"round {i}: a region group's embedding trie needs {peak} B, "
                f"over the per-machine budget of {bytes_budget} B"
            )
            return False
        pairs = sum(r.pending_pairs for r in rs)
        if pairs:
            metrics.add_comm("verifyE", pairs * VERIFY_PAIR_BYTES)
    ex["dist_embeddings"] = sum(r.survivors for r in records)
    if measure_compression:
        ex["dist_trie_nodes"] = sum(r.final_trie_nodes for r in records)
    return True
