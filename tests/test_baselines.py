"""Baseline engine tests: each must produce exactly the oracle's rows,
their decompositions must be structurally sound, and the simulated
memory budget must trip on oversized intermediates."""
import pytest

from repro.baselines.joinbase import order_units
from repro.baselines.psgl import run_psgl
from repro.baselines.seed import run_seed, seed_decomposition
from repro.baselines.twintwig import run_twintwig, twintwig_decomposition
from repro.baselines.common import bfs_vertex_order, shuffle_bytes
from repro.oracle import assert_equivalent
from repro.query.queries import ALL_QUERIES, QUERIES
from repro.sqlgen import pattern_sql

ORACLE_QUERIES = sorted(ALL_QUERIES)


# ---------------- decompositions ----------------

@pytest.mark.parametrize("qn", ORACLE_QUERIES)
def test_twintwig_units_cover_all_edges(qn):
    p = ALL_QUERIES[qn]
    units = twintwig_decomposition(p)
    covered = {tuple(sorted(e)) for u in units for e in u.edges}
    assert covered == set(p.edges)
    for u in units:
        assert len(u.edges) <= 2  # the TwinTwig restriction
        assert all(u.vertices[0] in e for e in u.edges)  # a star


@pytest.mark.parametrize("qn", ORACLE_QUERIES)
def test_seed_units_cover_all_edges(qn):
    p = ALL_QUERIES[qn]
    units = seed_decomposition(p)
    covered = {tuple(sorted(e)) for u in units for e in u.edges}
    assert covered == set(p.edges)


def test_seed_uses_triangle_units_on_cliques():
    units = seed_decomposition(ALL_QUERIES["qc2"])  # K4
    assert any(len(u.vertices) == len(u.edges) == 3 for u in units)  # a triangle


def test_seed_fewer_rounds_than_twintwig():
    for qn in ("q2", "q4", "q5", "qc2", "qc3"):
        p = ALL_QUERIES[qn]
        assert len(seed_decomposition(p)) <= len(twintwig_decomposition(p)), qn


def test_order_units_connectivity():
    for qn in ORACLE_QUERIES:
        units = order_units(twintwig_decomposition(ALL_QUERIES[qn]))
        placed = set(units[0].vertices)
        for u in units[1:]:
            assert placed & set(u.vertices)
            placed |= set(u.vertices)


def test_bfs_vertex_order():
    p = QUERIES["q5"]
    order = bfs_vertex_order(p)
    assert sorted(order) == list(range(p.n))
    seen = {order[0]}
    for u in order[1:]:
        assert p.adj[u] & seen  # connected expansion
        seen.add(u)


def test_shuffle_bytes_model():
    assert shuffle_bytes(100, 3, 4) == int(100 * 3 * 8 * 3 / 4)
    assert shuffle_bytes(100, 3, 1) == 0  # single machine: nothing crosses


# ---------------- oracle equality ----------------

@pytest.mark.parametrize("qn", ORACLE_QUERIES)
def test_psgl_oracle(gc_dblp, qn):
    p = ALL_QUERIES[qn]
    df, met = run_psgl(gc_dblp, p, qn)
    assert not met.failed
    assert met.comm_bytes > 0  # PSgL always shuffles partials
    assert_equivalent(df, pattern_sql(p), edges=gc_dblp.edges_pdf)


@pytest.mark.parametrize("qn", ["q1", "q2", "q3", "q4", "q5", "q7", "qc1", "qc2"])
def test_twintwig_oracle(gc_dblp, qn):
    p = ALL_QUERIES[qn]
    df, met = run_twintwig(gc_dblp, p, qn)
    assert not met.failed
    assert_equivalent(df, pattern_sql(p), edges=gc_dblp.edges_pdf)


@pytest.mark.parametrize("qn", ["q1", "q2", "q4", "q6", "q8", "qc1", "qc2", "qc3"])
def test_seed_oracle(gc_dblp, qn):
    p = ALL_QUERIES[qn]
    df, met = run_seed(gc_dblp, p, qn)
    assert not met.failed
    assert_equivalent(df, pattern_sql(p), edges=gc_dblp.edges_pdf)


@pytest.mark.parametrize("qn", ["q2", "q6"])
def test_twintwig_oracle_on_lj(gc_lj, qn):
    p = ALL_QUERIES[qn]
    df, met = run_twintwig(gc_lj, p, qn)
    assert_equivalent(df, pattern_sql(p), edges=gc_lj.edges_pdf)


# ---------------- budget failures (simulated OOM) ----------------

def test_psgl_budget_failure(gc_lj):
    df, met = run_psgl(gc_lj, QUERIES["q6"], "q6", bytes_budget=128)
    assert met.failed and df is None


def test_twintwig_budget_failure(gc_lj):
    df, met = run_twintwig(gc_lj, QUERIES["q6"], "q6", bytes_budget=128)
    assert met.failed and df is None


def test_seed_budget_failure(gc_lj):
    df, met = run_seed(gc_lj, QUERIES["q6"], "q6", bytes_budget=128)
    assert met.failed and df is None
