"""RADS integration tests: every query's embedding set must equal the
DuckDB oracle's, across datasets, partitioners and engine options
(R-Meef alone, region groups, memory budget)."""
import numpy as np
import pytest

from repro.core.engine import run_rads
from repro.core.metrics import RunMetrics
from repro.core.regions import region_groups
from repro.core.rmeef import run_rmeef
from repro.core.sme import candidate_split
from repro.oracle import assert_equivalent
from repro.query.plan import choose_plan, random_minround_plan, random_star_plan
from repro.query.queries import ALL_QUERIES, QUERIES
from repro.sqlgen import pattern_sql


def _check(gc, qn, **kw):
    p = ALL_QUERIES[qn]
    df, met = run_rads(gc, p, qn, **kw)
    assert not met.failed, met.fail_reason
    assert_equivalent(df, pattern_sql(p), edges=gc.edges_pdf)
    return met


@pytest.mark.parametrize("qn", sorted(ALL_QUERIES))
def test_rads_oracle_dblp(gc_dblp, qn):
    met = _check(gc_dblp, qn)
    assert met.n_embeddings > 0  # tiny datasets sized so results exist
    assert met.comm_bytes >= 0


@pytest.mark.parametrize("qn", ["q1", "q2", "q4", "q6", "qc1"])
def test_rads_oracle_livejournal(gc_lj, qn):
    _check(gc_lj, qn)


@pytest.mark.parametrize("qn", ["q1", "q2", "q3"])
def test_rads_oracle_roadnet(gc_road, qn):
    met = _check(gc_road, qn)
    # road-like: the locality partition leaves interior candidates whose
    # border distance >= span, so SM-E gets a real share of the work
    # (it *dominates* only at lite scale, where interiors are large);
    # q2 is triangle-free on a grid, so only candidate counts are sure
    assert met.extras["c1_candidates"] > 0
    if qn == "q1":
        assert met.extras["sme_embeddings"] > 0


@pytest.mark.parametrize("qn", ["q1", "q4", "q6"])
def test_rads_oracle_hash_partition(gc_dblp_hash, qn):
    _check(gc_dblp_hash, qn)


@pytest.mark.parametrize("qn", ["q2", "q4"])
def test_rads_without_sme_same_answer(gc_dblp, qn):
    """R-Meef alone, over every degree-filtered candidate (C1 included),
    finds the whole answer."""
    p = QUERIES[qn]
    plan = choose_plan(p)
    c1, rest = candidate_split(gc_dblp, p, plan.units[0].piv)
    assert len(c1) > 0
    met = RunMetrics("rads", qn, gc_dblp.name)
    df = run_rmeef(gc_dblp, p, plan, np.union1d(c1, rest), met)
    assert not met.failed, met.fail_reason
    assert_equivalent(df, pattern_sql(p), edges=gc_dblp.edges_pdf)
    assert met.extras["dist_embeddings"] == df.count() > 0


@pytest.mark.parametrize("qn", ["q1", "q4"])
def test_rads_region_groups_same_answer(gc_dblp, qn):
    met = _check(gc_dblp, qn, group_mem_bytes=2_000)
    assert met.extras["n_region_groups"] >= gc_dblp.n_machines


def test_rads_several_groups_per_machine_same_answer(gc_dblp):
    met = _check(gc_dblp, "q2", group_mem_bytes=4_000)
    # more groups than machines: some machine holds >= 2 region groups
    assert met.extras["n_region_groups"] > gc_dblp.n_machines


def test_rmeef_grouped_meter_equals_per_group_runs(gc_dblp):
    """One grouped R-Meef pass meters what running each region group id
    on its own would: fetchV and verifyE add up (the fetch cache is per
    (machine, group), so every group starts with an empty one), and the
    peak intermediate is the largest group's."""
    p = QUERIES["q5"]  # 3 rounds: the fetch cache is reused across rounds
    plan = choose_plan(p)
    start = np.concatenate(candidate_split(gc_dblp, p, plan.units[0].piv))
    # Algorithm 3 per machine, as the machines' tasks run it
    A = gc_dblp.adjacency.value
    owner = gc_dblp.owner_np[start]
    groups = {
        m: region_groups(A.local(m), np.sort(start[owner == m]), 8, seed=m)
        for m in range(gc_dblp.n_machines)
    }
    assert sum(map(len, groups.values())) > gc_dblp.n_machines

    def meter(start, max_group_size=None):
        met = RunMetrics("rads", "q5", gc_dblp.name)
        assert run_rmeef(gc_dblp, p, plan, start, met, max_group_size=max_group_size) is not None
        return met

    whole = meter(start, 8)
    assert whole.extras["n_region_groups"] == sum(map(len, groups.values()))
    # group id g of every machine at once: one group per machine
    parts = [
        meter(np.concatenate([gs[gid] for gs in groups.values() if gid < len(gs)]))
        for gid in range(max(map(len, groups.values())))
    ]
    assert len(parts) > 1
    for kind in ("fetchV", "verifyE"):
        assert whole.comm_breakdown.get(kind, 0) == sum(
            m.comm_breakdown.get(kind, 0) for m in parts
        )
    assert whole.comm_breakdown["fetchV"] > 0
    assert whole.extras["dist_embeddings"] == sum(m.extras["dist_embeddings"] for m in parts)
    assert whole.peak_intermediate_bytes == max(m.peak_intermediate_bytes for m in parts)


def test_rads_budget_failure(gc_lj):
    p = QUERIES["q6"]
    df, met = run_rads(gc_lj, p, "q6", bytes_budget=64)
    assert met.failed and df is None
    # the bytes the failing round's trie needs, and the budget
    need = met.extras["peak_group_trie_bytes"]
    assert need > 64
    assert f"needs {need} B, over the per-machine budget of 64 B" in met.fail_reason


def test_rads_random_plans_same_answer(gc_dblp):
    p = QUERIES["q5"]
    for planner, seed in ((random_star_plan, 1), (random_minround_plan, 2)):
        df, met = run_rads(gc_dblp, p, "q5", plan=planner(p, seed=seed))
        assert not met.failed
        assert_equivalent(df, pattern_sql(p), edges=gc_dblp.edges_pdf)


def test_rads_metrics_shape(gc_dblp):
    p = QUERIES["q4"]
    _, met = run_rads(gc_dblp, p, "q4")
    assert met.engine == "rads"
    assert met.rounds == choose_plan(p).rounds
    assert met.elapsed_s > 0
    assert met.peak_intermediate_rows > 0
    assert met.extras["sme_embeddings"] + met.extras["dist_embeddings"] == met.n_embeddings


def test_rads_compression_measured(gc_dblp):
    _, met = run_rads(gc_dblp, QUERIES["q4"], "q4", measure_compression=True)
    el, et = met.extras["el_bytes"], met.extras["et_bytes"]
    # exact: per-round EL/ET come from the metering aggregate's (m, g)
    # prefix counts, which must add up to the whole trie
    assert (el, et) == (140_040, 151_140)
    # 20B/node vs 8B/entry: even with zero prefix sharing ET <= 2.5 EL;
    # ET < EL (the paper's Tables 3-4) emerges at bench scale
    assert et <= 2.5 * el


def test_rads_comm_zero_when_one_machine(spark_tuned):
    from repro.graphs.datasets import make_context

    gc1 = make_context(spark_tuned, "dblp", "tiny", m=1)
    _, met = run_rads(gc1, QUERIES["q2"], "q2")
    assert met.comm_bytes == 0  # no foreign vertices at all
    gc1.unpersist()
