"""Physical-plan guard: the edge table is replicated, so every baseline
join against it is a broadcast hash join. The tests run with
``autoBroadcastJoinThreshold = -1``, so a join that loses its broadcast
hint falls back to a sort-merge join and fails here. RADS runs each
machine's work as one task over the broadcast adjacency, so a call
issues the same Spark actions whatever its round count: one, or two
when Φ's region-group cap may bind and needs SM-E's count first."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.baselines.crystal import grow_cliques
from repro.core.engine import run_rads
from repro.core.expand import _c, expand
from repro.core.metrics import RunMetrics
from repro.core.rmeef import rmeef_phase
from repro.core.sme import per_machine
from repro.query.pattern import Pattern
from repro.query.plan import choose_plan
from repro.query.queries import QUERIES

TRIANGLE = Pattern(3, ((0, 1), (1, 2), (0, 2)), "triangle")

#: DataFrame methods that run Spark jobs for the driver
ACTIONS = (
    "localCheckpoint", "checkpoint", "collect", "count", "toPandas", "take",
    "head", "first", "show", "toLocalIterator", "foreach", "foreachPartition",
    "isEmpty",
)


def _executed_plan(df) -> str:
    df.collect()  # run it, so an adaptive plan reports its final form
    return df._jdf.queryExecution().executedPlan().toString()


def test_expand_plan_has_no_sort_merge_join(gc_dblp):
    R = gc_dblp.degrees.select(F.col("v").alias(_c(0)))
    R = expand(gc_dblp, R, TRIANGLE, [0], 1, 0)
    R = expand(gc_dblp, R, TRIANGLE, [0, 1], 2, 0, eager=[1])  # left_semi
    plan = _executed_plan(R)
    assert "BroadcastHashJoin" in plan
    assert "SortMergeJoin" not in plan


def test_clique_growth_plan_has_no_sort_merge_join(gc_dblp):
    plan = _executed_plan(grow_cliques(gc_dblp, 4)[4])
    assert "BroadcastHashJoin" in plan
    assert "SortMergeJoin" not in plan


def test_rads_checkpointed_plans_have_no_sort_merge_join(gc_dblp, monkeypatch):
    """Every plan ``run_rads`` checkpoints with region groups (Φ) set."""
    DF = type(gc_dblp.edges)
    checkpoint = DF.localCheckpoint
    plans = []

    def recorded(self, *args, **kwargs):
        out = checkpoint(self, *args, **kwargs)
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        return out

    monkeypatch.setattr(DF, "localCheckpoint", recorded)
    _, met = run_rads(gc_dblp, QUERIES["q1"], "q1", group_mem_bytes=4000)
    assert met.extras["n_region_groups"] > gc_dblp.n_machines
    assert len(plans) == 2  # SM-E's job and the machines' R-Meef job
    assert [p for p in plans if "SortMergeJoin" in p] == []


@pytest.mark.parametrize("qn,rounds", [("q1", 2), ("q5", 3), ("q6", 4)])
def test_rads_actions_do_not_grow_with_rounds(gc_dblp, monkeypatch, qn, rounds):
    """One checkpoint per Spark job, whatever the round count: the rounds
    run inside the machines' tasks and the meter records return through
    an accumulator. SM-E and R-Meef share one job, unless Φ's group cap
    may bind: then SM-E's job runs first, for its embedding count. At
    Φ = 4000 B the cap binds; at 16 MB the degree bound on SM-E's count
    proves that it cannot for q1, but not for q5 and q6, whose 5- and
    6-vertex bounds are over 100× SM-E's count."""
    assert choose_plan(QUERIES[qn]).rounds == rounds
    DF = type(gc_dblp.edges)
    actions = []

    def logged(name):
        fn = getattr(DF, name)

        def wrapper(self, *args, **kwargs):
            actions.append(name)
            return fn(self, *args, **kwargs)

        return wrapper

    for name in ACTIONS:
        monkeypatch.setattr(DF, name, logged(name))
    for phi, expected in [
        (None, ["localCheckpoint"]),
        (4000, ["localCheckpoint"] * 2),
        (16 << 20, ["localCheckpoint"] * {"q1": 1, "q5": 2, "q6": 2}[qn]),
    ]:
        actions.clear()
        _, met = run_rads(gc_dblp, QUERIES[qn], qn, group_mem_bytes=phi)
        assert not met.failed
        assert met.extras["c1_candidates"] > 0
        assert actions == expected, phi


def test_rmeef_over_no_start_runs_no_job(gc_dblp, spark_jobs):
    """No machine owns a start vertex: an empty frame, and no Spark job."""
    p = QUERIES["q1"]
    met = RunMetrics("rads", "q1", gc_dblp.name)
    phase = rmeef_phase(p, choose_plan(p), np.zeros(0, np.int64), met)
    out = []
    jobs = spark_jobs(lambda: out.append(per_machine(gc_dblp, [phase], p.n)))
    assert jobs == 0
    assert out[0].columns == [_c(u) for u in range(p.n)]
    assert out[0].count() == 0
    assert met.extras["dist_embeddings"] == 0
