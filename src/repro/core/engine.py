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
Φ's group cap reads SM-E's output, so a warm call runs one Spark job
with both phases, whatever the round count, and two when Φ is set:
SM-E's job first (none when C1 is empty), then R-Meef's. Each job is
one driver action, a checkpoint; the tasks' meter records return
through an accumulator. The candidate split, Φ's group cap, the
metering and the embedding count are bookkeeping on the driver: the
split reads the graph's replicated degree and border-distance arrays,
and the rest comes from the meter records.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame

from repro.core.emtrie import list_bytes
from repro.core.metrics import TRIE_NODE_BYTES, VERTEX_BYTES, RunMetrics
from repro.core.rmeef import rmeef_phase
from repro.core.sme import candidate_split, per_machine, sme_phase
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan, choose_plan


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
        # Φ's group cap needs SM-E's embedding count, so SM-E's job runs
        # first: Φ / (estimated rows per candidate × pattern size)
        sme_df = per_machine(gc, [sme], pattern.n)
        est_rows = max(1.0, metrics.extras["sme_embeddings"] / max(1, len(c1)))
        per_cand_bytes = est_rows * pattern.n * VERTEX_BYTES
        max_group = max(1, int(group_mem_bytes // per_cand_bytes))
        metrics.extras["max_group_size"] = max_group
        dist = rmeef_phase(pattern, plan, rest, metrics, max_group_size=max_group, **kw)
        out = sme_df.unionByName(per_machine(gc, [dist], pattern.n))
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
