"""Shared fixtures: tiny GraphContexts per dataset (session-scoped so
the Spark caches amortize across test modules) and the Crystal index.

Shuffle partitions are tuned down at runtime for the tiny inputs — a
per-workload knob; automatic broadcast joins stay disabled as the root
conftest dictates. Joins against the replicated edge table and degrees
carry explicit broadcast hints, so the baselines' expansion does not
shuffle (``test_plan_shape.py`` guards that); the TwinTwig/SEED unit
joins still do. RADS joins nothing: each machine's work is one task
over the graph's broadcast adjacency.
"""
import itertools

import pytest

from repro.baselines.crystal import build_clique_index
from repro.graphs.datasets import make_context


@pytest.fixture(scope="session")
def spark_tuned(spark):
    spark.conf.set("spark.sql.shuffle.partitions", 8)
    return spark


_job_groups = itertools.count()


@pytest.fixture
def spark_jobs(spark_tuned):
    """``spark_jobs(fn)``: the number of Spark jobs ``fn()`` runs."""
    sc = spark_tuned.sparkContext

    def count(fn) -> int:
        group = f"counted-{next(_job_groups)}"
        sc.setJobGroup(group, group)
        try:
            fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return len(sc.statusTracker().getJobIdsForGroup(group))

    return count


@pytest.fixture(scope="session")
def gc_dblp(spark_tuned):
    return make_context(spark_tuned, "dblp", "tiny", m=3)


@pytest.fixture(scope="session")
def gc_road(spark_tuned):
    return make_context(spark_tuned, "roadnet", "tiny", m=4)


@pytest.fixture(scope="session")
def gc_lj(spark_tuned):
    return make_context(spark_tuned, "livejournal", "tiny", m=3)


@pytest.fixture(scope="session")
def gc_uk(spark_tuned):
    return make_context(spark_tuned, "uk2002", "tiny", m=3)


@pytest.fixture(scope="session")
def gc_dblp_hash(spark_tuned):
    return make_context(spark_tuned, "dblp", "tiny", m=3, partitioner="hash")


@pytest.fixture(scope="session")
def cindex_dblp(gc_dblp, tmp_path_factory):
    return build_clique_index(gc_dblp, str(tmp_path_factory.mktemp("cidx_dblp")))
