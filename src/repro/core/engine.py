"""RADS top level: SM-E split + region grouping + R-Meef (Figure 1).

``run_rads`` is the full system of the paper: it splits the start-vertex
candidates by border distance (Prop. 1), enumerates the far-from-border
ones on their own machines (SM-E), region-groups the rest, and runs the
distributed R-Meef rounds over them. The union is the answer; the
metrics object carries the simulated communication and memory costs.

Each machine's work runs inside a Spark task over the graph's
broadcast adjacency: SM-E over the C1 candidates, then Algorithm 3 and
every R-Meef round over the rest, both with one numpy kernel,
``core.expand.expand_rounds``. ``sme_phase`` and ``rmeef_phase`` build
the two phases and ``run_rads`` hands them to ``sme.per_machine``. Only
Φ's group cap reads SM-E's output, and Algorithm 3's groups are the
same under every cap at or above a machine's share of the start
candidates. So a warm call runs one Spark job with both phases, whatever
the round count, unless Φ is set and its cap at a driver-side bound on
SM-E's count (:func:`sme_rows_bound`) falls below the largest share:
then SM-E's job runs first (none when C1 is empty), and R-Meef's after.
Each job is one driver action, a checkpoint; the tasks' meter records
return through an accumulator. The candidate split, Φ's group cap, the
metering and the embedding count are bookkeeping on the driver: the
split and the bound read the graph's replicated degree, owner and
border-distance arrays, and the rest comes from the meter records.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes
from repro.core.metrics import TRIE_NODE_BYTES, VERTEX_BYTES, RunMetrics
from repro.core.rmeef import rmeef_phase
from repro.core.sme import candidate_split, per_machine, sme_phase
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan, choose_plan


def group_cap(phi: int, sme_rows: int, n_c1: int, n: int) -> int:
    """Φ's region-group cap: Φ / (estimated rows per candidate × pattern
    size), the rows per candidate being SM-E's ``sme_rows`` over its
    ``n_c1`` candidates, at least 1. It never grows with ``sme_rows``."""
    est_rows = max(1.0, sme_rows / max(1, n_c1))
    return max(1, int(phi // (est_rows * n * VERTEX_BYTES)))


def sme_rows_bound(gc: GraphContext, plan: Plan, c1: np.ndarray) -> int:
    """An upper bound on SM-E's embedding count over the C1 vertices
    ``c1``, from the replicated degrees alone: Σ_{v∈C1} deg(v)^|L₀| ·
    Δ^(n−1−|L₀|). The kernel draws every leaf from its unit's pivot's
    adjacency: the start vertex's for the |L₀| leaves of unit 0, and
    for each other leaf one of at most Δ, the graph's largest degree."""
    k0 = len(plan.units[0].leaves)
    deg, count = np.unique(gc.deg_np[c1], return_counts=True)
    rows = sum(int(c) * int(d) ** k0 for d, c in zip(deg, count))
    return rows * int(gc.deg_np.max(initial=0)) ** (plan.pattern.n - 1 - k0)


def run_rads(
    gc: GraphContext,
    pattern: Pattern,
    query_name: str = "",
    plan: Plan | None = None,
    *,
    bytes_budget: int | None = None,
    group_mem_bytes: int | None = None,
    measure_compression: bool = False,
) -> tuple[DataFrame | None, RunMetrics]:
    """Enumerate ``pattern`` with RADS. Returns (embeddings, metrics);
    embeddings has one column per query vertex (u0..u{n-1}).

    * ``bytes_budget`` — simulated per-machine memory; exceeded ⇒ failed.
    * ``group_mem_bytes`` — Φ for region grouping (Alg. 3); None ⇒ one
      region group per machine.
    """
    t0 = time.perf_counter()
    metrics = RunMetrics("rads", query_name or pattern.name, gc.name)
    plan = plan or choose_plan(pattern)
    u_start = plan.units[0].piv

    c1, rest = candidate_split(gc, pattern, u_start)
    metrics.extras["c1_candidates"] = len(c1)

    # --- SM-E per machine (Prop. 1 candidates), then R-Meef's region
    # groups and distributed rounds; an empty C1 adds no work ---
    sme = sme_phase(pattern, plan, c1, metrics)
    kw = dict(bytes_budget=bytes_budget, measure_compression=measure_compression)
    if group_mem_bytes is None:  # one region group per machine
        out = per_machine(gc, [sme, rmeef_phase(pattern, plan, rest, metrics, **kw)], pattern.n)
    else:
        # the cap falls as SM-E's count grows, and a cap at or above a
        # machine's share of ``rest`` gives Algorithm 3 the same groups:
        # if the cap at the bound reaches every share, R-Meef's groups
        # are known before SM-E runs, and the phases share one job
        def cap(sme_rows: int) -> int:
            return group_cap(group_mem_bytes, sme_rows, len(c1), pattern.n)

        bound = sme_rows_bound(gc, plan, c1)
        share = int(np.bincount(gc.owner_np[rest]).max(initial=0))
        if cap(bound) >= share:
            dist = rmeef_phase(pattern, plan, rest, metrics, max_group_size=cap(bound), **kw)
            out = per_machine(gc, [sme, dist], pattern.n)
        else:  # the cap may bind, so it needs SM-E's count first
            sme_df = per_machine(gc, [sme], pattern.n)
            max_group = cap(metrics.extras["sme_embeddings"])
            dist = rmeef_phase(pattern, plan, rest, metrics, max_group_size=max_group, **kw)
            out = sme_df.unionByName(per_machine(gc, [dist], pattern.n))
        sme_rows = metrics.extras["sme_embeddings"]
        if sme_rows > bound:
            raise RuntimeError(f"SM-E found {sme_rows} embeddings, over the degree bound {bound}")
        metrics.extras["max_group_size"] = cap(sme_rows)
    if metrics.failed:
        metrics.elapsed_s = time.perf_counter() - t0
        return None, metrics

    metrics.n_embeddings = metrics.extras["sme_embeddings"] + metrics.extras["dist_embeddings"]
    if measure_compression:
        # include the final result set (SM-E + distributed) in the
        # EL-vs-ET comparison, stored in matching order like the trie;
        # the start vertex comes first, so SM-E's and each machine's
        # region groups' tries share no node
        el = list_bytes(metrics.n_embeddings, pattern.n)
        nodes = metrics.extras["sme_trie_nodes"] + metrics.extras["dist_trie_nodes"]
        et = nodes * TRIE_NODE_BYTES
        metrics.extras["el_bytes"] = max(metrics.extras.get("el_bytes", 0), el)
        metrics.extras["et_bytes"] = max(metrics.extras.get("et_bytes", 0), et)
    metrics.elapsed_s = time.perf_counter() - t0
    return out, metrics
