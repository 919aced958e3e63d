"""Oracle SQL generator tests: generated conjunctive queries must count
exactly what brute force counts, with and without symmetry breaking."""
import duckdb
import pandas as pd
import pytest

from repro.query.pattern import Pattern, count_injective_homomorphisms
from repro.query.queries import ALL_QUERIES
from repro.sqlgen import pattern_sql

TRIANGLE = Pattern(3, ((0, 1), (1, 2), (0, 2)))


def _sym_pdf(adj):
    rows = [(a, b) for a in adj for b in adj[a]]
    return pd.DataFrame(rows, columns=["src", "dst"])


def _k5_adj():
    return {v: {w for w in range(5) if w != v} for v in range(5)}


def _random_adj(seed, n=9, p=0.4):
    import random

    rng = random.Random(seed)
    adj = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _count(sql, pdf):
    con = duckdb.connect()
    con.register("edges", pdf)
    n = con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    con.close()
    return n


def test_triangle_in_k5_sb():
    # C(5,3) = 10 triangles, one representative each under SB
    assert _count(pattern_sql(TRIANGLE), _sym_pdf(_k5_adj())) == 10


def test_triangle_in_k5_no_sb():
    assert _count(pattern_sql(TRIANGLE, symmetry_breaking=False), _sym_pdf(_k5_adj())) == 60


def test_square_in_k4():
    # K4 contains 3 distinct 4-cycles
    adj = {v: {w for w in range(4) if w != v} for v in range(4)}
    assert _count(pattern_sql(ALL_QUERIES["q1"]), _sym_pdf(adj)) == 3


@pytest.mark.parametrize("qn", sorted(ALL_QUERIES))
def test_sql_matches_bruteforce(qn):
    p = ALL_QUERIES[qn]
    adj = _random_adj(3)
    pdf = _sym_pdf(adj)
    no_sb = _count(pattern_sql(p, symmetry_breaking=False), pdf)
    assert no_sb == count_injective_homomorphisms(p, adj)
    with_sb = _count(pattern_sql(p), pdf)
    assert no_sb == with_sb * len(p.automorphisms)


def test_sql_columns_named_by_vertex():
    sql = pattern_sql(TRIANGLE)
    for u in range(3):
        assert f"AS u{u}" in sql


def test_sql_non_edges_distinct():
    # path pattern: non-adjacent endpoints must still be distinct
    p = Pattern(3, ((0, 1), (1, 2)))
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    # triangle host: injective paths of length 2 = 6; aut(path)=2 → 3
    assert _count(pattern_sql(p), _sym_pdf(adj)) == 3
