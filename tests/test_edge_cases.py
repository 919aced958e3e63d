"""All five engines on a hand-built graph with the shapes the named
datasets lack: a disconnected data graph (a triangle with a tail and a
disjoint 4-cycle), two isolated vertices, explicit ownership over two
machines, and a 2-vertex pattern. Every engine must return exactly the
DuckDB oracle's embeddings; RADS also runs with a tiny region-group
target Φ (64 B), which caps groups at a few candidates."""
import numpy as np
import pytest

from repro.baselines.crystal import build_clique_index, run_crystal
from repro.baselines.psgl import run_psgl
from repro.baselines.seed import run_seed
from repro.baselines.twintwig import run_twintwig
from repro.core.engine import run_rads
from repro.core.sme import candidate_split
from repro.graphs.datasets import build_context, make_context
from repro.oracle import assert_equivalent
from repro.query.pattern import Pattern
from repro.query.plan import choose_plan
from repro.query.queries import QUERIES
from repro.sqlgen import pattern_sql

# triangle 0-1-2 with tail 2-3; 4-cycle 4-5-6-7; vertices 8, 9 isolated
EDGES = np.array(
    [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)], dtype=np.int64
)
# both components cross the machine boundary; vertex 3 is interior
OWNER = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 1])

PATTERNS = {
    "edge": Pattern(2, ((0, 1),), "edge"),
    "triangle": Pattern(3, ((0, 1), (1, 2), (0, 2)), "triangle"),
    "path3": Pattern(3, ((0, 1), (1, 2)), "3-path"),
}
#: embeddings up to automorphism: 8 edges, 1 triangle, Σ C(deg, 2) paths
EXPECTED = {"edge": 8, "triangle": 1, "path3": 9}

ENGINES = {
    "rads": lambda gc, p, idx: run_rads(gc, p),
    "rads_tiny_phi": lambda gc, p, idx: run_rads(gc, p, group_mem_bytes=64),
    "psgl": lambda gc, p, idx: run_psgl(gc, p),
    "twintwig": lambda gc, p, idx: run_twintwig(gc, p),
    "seed": lambda gc, p, idx: run_seed(gc, p),
    "crystal": lambda gc, p, idx: run_crystal(gc, p, idx),
}


@pytest.fixture(scope="module")
def gc_edge_cases(spark_tuned):
    gc = build_context(
        spark_tuned, EDGES, len(OWNER), partitioner=OWNER, name="edge_cases"
    )
    yield gc
    gc.unpersist()


@pytest.fixture(scope="module")
def cindex_edge_cases(gc_edge_cases, tmp_path_factory):
    return build_clique_index(gc_edge_cases, str(tmp_path_factory.mktemp("cidx_edge")))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("pname", sorted(PATTERNS))
def test_engine_matches_oracle_on_disconnected_graph(
    gc_edge_cases, cindex_edge_cases, pname, engine
):
    gc, p = gc_edge_cases, PATTERNS[pname]
    assert gc.n_machines == 2
    df, met = ENGINES[engine](gc, p, cindex_edge_cases)
    assert not met.failed, met.fail_reason
    assert_equivalent(df, pattern_sql(p), edges=gc.edges_pdf)
    assert met.n_embeddings == EXPECTED[pname]
    if engine.startswith("rads"):
        # only vertex 3 is interior: SM-E gets one candidate for the
        # edge (finding edge 2-3 inside machine 1) and none otherwise
        assert met.extras["sme_embeddings"] == (pname == "edge")
    if engine == "rads_tiny_phi":
        assert met.extras["max_group_size"] <= 4
        assert met.extras["n_region_groups"] >= gc.n_machines


# triangle 0-1-2 with tail 2-3 on machine 0; 4-cycle 4-5-6-7 with chord
# 4-6 on machine 1: no edge crosses machines, so no vertex has a border
# within reach and every start candidate goes to SM-E (Prop. 1)
LOCAL_EDGES = np.array(
    [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7), (4, 6)],
    dtype=np.int64,
)
LOCAL_OWNER = np.array([0, 0, 0, 0, 1, 1, 1, 1])


@pytest.fixture(scope="module")
def gc_all_local(spark_tuned):
    gc = build_context(
        spark_tuned, LOCAL_EDGES, len(LOCAL_OWNER), partitioner=LOCAL_OWNER,
        name="all_local",
    )
    yield gc
    gc.unpersist()


@pytest.mark.parametrize("phi", [None, 64])
@pytest.mark.parametrize("pname", ["triangle", "path3"])
def test_rads_with_empty_rest_matches_oracle(gc_all_local, pname, phi):
    """Every start candidate in C1: R-Meef starts from no rows (and, with
    Φ, an empty region-group table) and moves nothing between machines."""
    gc, p = gc_all_local, PATTERNS[pname]
    assert gc.n_machines == 2
    df, met = run_rads(gc, p, group_mem_bytes=phi)
    assert not met.failed, met.fail_reason
    assert_equivalent(df, pattern_sql(p), edges=gc.edges_pdf)
    assert met.extras["c1_candidates"] > 0
    assert met.extras["dist_embeddings"] == 0
    assert met.n_embeddings == met.extras["sme_embeddings"] > 0
    assert met.comm_breakdown.get("fetchV", 0) == 0
    assert met.comm_breakdown.get("verifyE", 0) == 0
    if phi is not None:
        assert met.extras["n_region_groups"] == 0


@pytest.mark.parametrize("phi", [None, 64])
def test_rads_with_empty_rest_runs_one_job(gc_all_local, spark_jobs, phi):
    """SM-E's job is the only one: R-Meef's phase shares it, and no
    machine runs it. With Φ, no machine has a share of R-Meef's start
    for the group cap to bind."""
    jobs = spark_jobs(lambda: run_rads(gc_all_local, PATTERNS["triangle"], group_mem_bytes=phi))
    assert jobs == 1


# 4-cycle 0-1-2-3 with chord 0-2, owners alternating around the cycle:
# every vertex has a neighbour on the other machine, so every border
# distance is 0 and no start candidate goes to SM-E
BORDER_EDGES = np.array([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], dtype=np.int64)
BORDER_OWNER = np.array([0, 1, 0, 1])


@pytest.fixture(scope="module")
def gc_all_border(spark_tuned):
    gc = build_context(
        spark_tuned, BORDER_EDGES, len(BORDER_OWNER), partitioner=BORDER_OWNER,
        name="all_border",
    )
    yield gc
    gc.unpersist()


def test_rads_with_phi_and_empty_c1_runs_one_job(gc_all_border, spark_jobs):
    """Φ set and C1 empty: SM-E's job has no vertex to run on, so R-Meef's
    is the only one, and the answer is whole."""
    p = PATTERNS["triangle"]
    out = []
    jobs = spark_jobs(lambda: out.append(run_rads(gc_all_border, p, group_mem_bytes=64)))
    df, met = out[0]
    assert not met.failed, met.fail_reason
    assert met.extras["c1_candidates"] == 0
    assert_equivalent(df, pattern_sql(p), edges=gc_all_border.edges_pdf)
    assert met.n_embeddings == 2
    assert jobs == 1


@pytest.fixture(scope="module", params=["bfs", "hash"])
def gc_one_machine(spark_tuned, request):
    gc = make_context(spark_tuned, "dblp", "tiny", m=1, partitioner=request.param)
    yield gc
    gc.unpersist()


@pytest.mark.parametrize("phi", [None, 4000])
@pytest.mark.parametrize("qn", ["q1", "q5"])
def test_rads_on_one_machine(gc_one_machine, spark_jobs, qn, phi):
    """m = 1: there is no border, so every start candidate is in C1, SM-E
    finds the whole answer in one job and nothing is communicated."""
    gc, p = gc_one_machine, QUERIES[qn]
    c1, rest = candidate_split(gc, p, choose_plan(p).units[0].piv)
    assert len(c1) > 0 and len(rest) == 0
    out = []
    jobs = spark_jobs(lambda: out.append(run_rads(gc, p, qn, group_mem_bytes=phi)))
    df, met = out[0]
    assert not met.failed, met.fail_reason
    assert_equivalent(df, pattern_sql(p), edges=gc.edges_pdf)
    assert met.extras["c1_candidates"] == len(c1)
    assert met.n_embeddings == met.extras["sme_embeddings"] > 0
    assert met.comm_breakdown.get("fetchV", 0) == 0
    assert met.comm_breakdown.get("verifyE", 0) == 0
    assert jobs == 1
