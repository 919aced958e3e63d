"""R-Meef: region-grouped multi-round expand / verify & filter (Sec. 3.2).

Each machine runs its share of the distributed phase inside a Spark
task over the graph's broadcast adjacency (``sme.per_machine``), as in
Algorithm 4: it region-groups its start candidates (Algorithm 3 over
its local adjacency, seed ``m``) and runs every round of one group after
another, in numpy. Every row descends from one start vertex, so it
keeps its home machine ``m`` and group ``g`` for its whole life:
intermediate results never move between machines, which is the paper's
core claim. Per unit of the execution plan:

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

The fetch cache is per (m, g), persists across the group's rounds as in
the paper, and lives in the machine's task. A group whose EC set's
embedding trie overruns the budget stops there.

Communication metering (DESIGN.md §2): the task returns one record per
(m, g, round) and the driver applies them round by round. fetchV =
adjacency bytes of newly fetched foreign pivots; verifyE = 17 bytes per
distinct pending pair. The start vertex fixes m and g, so every count
adds up over tasks.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

import numpy as np
from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes, trie_nodes
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
            records, rows = _run_group(
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


def _run_group(
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
