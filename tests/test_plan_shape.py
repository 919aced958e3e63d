"""Physical-plan guard: the edge table is replicated like the ownership
map, so every join against it is a broadcast hash join. The tests run
with ``autoBroadcastJoinThreshold = -1``, so a join that loses its
broadcast hint falls back to a sort-merge join and fails here."""
from pyspark.sql import functions as F

from repro.baselines.crystal import grow_cliques
from repro.core.expand import _c, expand
from repro.query.pattern import Pattern

TRIANGLE = Pattern(3, ((0, 1), (1, 2), (0, 2)), "triangle")


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
