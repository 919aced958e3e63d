"""Physical-plan guard: the edge table is replicated like the ownership
map, so every join against it is a broadcast hash join. The tests run
with ``autoBroadcastJoinThreshold = -1``, so a join that loses its
broadcast hint falls back to a sort-merge join and fails here. RADS's
replicated bookkeeping (candidate split, region groups, fetch cache)
stays on the driver, so R-Meef's later rounds, which fetch foreign
vertices, issue no more Spark actions than its first."""
from pyspark.sql import functions as F

from repro.baselines.crystal import grow_cliques
from repro.core.engine import run_rads
from repro.core.expand import _c, expand
from repro.core.metrics import RunMetrics
from repro.core.rmeef import run_rmeef
from repro.core.sme import split_candidates
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
    assert len(plans) > met.rounds
    assert [p for p in plans if "SortMergeJoin" in p] == []


def test_rmeef_later_rounds_issue_no_more_actions_than_round_0(gc_dblp, monkeypatch):
    """Each round ends with its metering aggregate's ``collect``; the
    rounds that fetch foreign vertices must cost no extra action."""
    DF = type(gc_dblp.edges)
    actions = []

    def logged(name):
        fn = getattr(DF, name)

        def wrapper(self, *args, **kwargs):
            actions.append(name)
            return fn(self, *args, **kwargs)

        return wrapper

    p = QUERIES["q5"]  # 3 rounds
    plan = choose_plan(p)
    c1, rest = split_candidates(gc_dblp, p, plan.units[0].piv)
    start = c1.unionByName(rest)
    met = RunMetrics("rads", "q5", gc_dblp.name)
    for name in ACTIONS:
        monkeypatch.setattr(DF, name, logged(name))
    assert run_rmeef(gc_dblp, p, plan, start, met) is not None
    monkeypatch.undo()
    assert met.comm_breakdown["fetchV"] > 0

    rounds, current = [], []
    for name in actions:
        current.append(name)
        if name == "collect":
            rounds.append(current)
            current = []
    assert current == []
    assert len(rounds) == plan.rounds == 3
    assert all(len(r) <= len(rounds[0]) for r in rounds[1:]), rounds
