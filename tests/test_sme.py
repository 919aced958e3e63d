"""SM-E tests: border distance (Prop. 1's precondition, a per-graph
column), the candidate split, and the backtracking enumerator."""
from collections import deque

import numpy as np
import pytest

from repro.core.metrics import RunMetrics
from repro.core.sme import candidate_split, enumerate_backtracking, sme_enumerate
from repro.graphs.datasets import build_context
from repro.query.pattern import Pattern, count_injective_homomorphisms
from repro.query.plan import choose_plan
from repro.query.queries import QUERIES

TRIANGLE = Pattern(3, ((0, 1), (1, 2), (0, 2)), "triangle")


@pytest.fixture(scope="module")
def path_gc(spark_tuned):
    """A 10-vertex path split in the middle: machine 0 owns 0..4,
    machine 1 owns 5..9. Border vertices are exactly 4 and 5."""
    edges = np.array([[i, i + 1] for i in range(9)])
    owner = np.array([0] * 5 + [1] * 5)
    return build_context(spark_tuned, edges, 10, partitioner=owner, name="path10")


def _bd(gc) -> dict[int, int]:
    return {r["v"]: r["bd"] for r in gc.degrees.collect()}


def test_border_vertices_on_path(path_gc):
    bd = _bd(path_gc)
    assert {(v, int(path_gc.owner_np[v])) for v, d in bd.items() if d == 0} == {
        (4, 0),
        (5, 1),
    }


@pytest.mark.parametrize(
    "depth,expected",
    [
        (0, {4, 5}),
        (1, {3, 4, 5, 6}),
        (2, {2, 3, 4, 5, 6, 7}),
        (4, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
    ],
)
def test_vertices_within_border_path(path_gc, depth, expected):
    assert {v for v, d in _bd(path_gc).items() if 0 <= d <= depth} == expected


def _bruteforce_bd(gc) -> dict[int, int]:
    """Per vertex, a single-source BFS over local edges to the nearest
    border vertex; -1 if none is reachable."""
    owner = gc.owner_np
    local: dict[int, list[int]] = {v: [] for v in range(gc.n_vertices)}
    border = set()
    for a, b in gc.edges_np.tolist():
        if owner[a] == owner[b]:
            local[a].append(b)
            local[b].append(a)
        else:
            border |= {a, b}
    out = {}
    for s in range(gc.n_vertices):
        dist, q, found = {s: 0}, deque([s]), -1
        while q:
            x = q.popleft()
            if x in border:
                found = dist[x]
                break
            for y in local[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        out[s] = found
    return out


@pytest.mark.parametrize("fixture", ["gc_dblp", "gc_dblp_hash", "gc_road"])
def test_border_distance_matches_bruteforce(request, fixture):
    gc = request.getfixturevalue(fixture)
    bd = _bd(gc)
    assert bd == _bruteforce_bd(gc)
    assert 0 in bd.values()  # every fixture has a border


def test_split_candidates_partitions(path_gc):
    p = Pattern(3, ((0, 1), (1, 2)), "path3")  # span(1) = 1
    pl = choose_plan(p)
    u0 = pl.units[0].piv
    c1, rest = candidate_split(path_gc, p, u0)
    c1v, restv = set(c1.tolist()), set(rest.tolist())
    assert c1v.isdisjoint(restv)
    # all degree-qualified vertices covered
    deg_ok = {
        r["v"]
        for r in path_gc.degrees.filter(f"deg >= {p.degree(u0)}").collect()
    }
    assert c1v | restv == deg_ok
    # Prop. 1 precondition: C1 vertices have BD >= span
    span = p.span(u0)
    near = {v for v, d in _bd(path_gc).items() if 0 <= d <= span - 1}
    assert c1v.isdisjoint(near)


# ---------------- backtracking enumerator ----------------

def _adj(edges):
    a = {}
    for x, y in edges:
        a.setdefault(x, set()).add(y)
        a.setdefault(y, set()).add(x)
    return a


def test_backtracking_triangle_in_k4():
    adj = _adj([(a, b) for a in range(4) for b in range(a + 1, 4)])
    res = list(enumerate_backtracking(adj, TRIANGLE, (0, 1, 2), adj.keys()))
    assert len(res) == 4  # C(4,3) under symmetry breaking


def test_backtracking_matches_bruteforce():
    import random

    rng = random.Random(5)
    edges = {(a, b) for a in range(8) for b in range(a + 1, 8) if rng.random() < 0.5}
    adj = _adj(edges)
    for qn in ("q1", "q2", "q4"):
        p = QUERIES[qn]
        pl = choose_plan(p)
        got = len(list(enumerate_backtracking(adj, p, pl.matching_order, adj.keys())))
        want = count_injective_homomorphisms(p, adj) // len(p.automorphisms)
        assert got == want, qn


def test_backtracking_respects_start_candidates():
    adj = _adj([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    pl = choose_plan(TRIANGLE)
    order = pl.matching_order
    all_res = list(enumerate_backtracking(adj, TRIANGLE, order, adj.keys()))
    some = list(enumerate_backtracking(adj, TRIANGLE, order, [adj and 2]))
    assert set(some) <= set(all_res)
    # results from a start set only map order[0] into that set
    u0 = order[0]
    assert all(r[u0] == 2 for r in some)


# ---------------- SM-E locality (Prop. 1 end-to-end) ----------------

def test_sme_embeddings_are_fully_local(gc_road):
    p = QUERIES["q1"]
    pl = choose_plan(p)
    c1, _ = candidate_split(gc_road, p, pl.units[0].piv)
    met = RunMetrics("rads", "q1", gc_road.name)
    rows = sme_enumerate(gc_road, p, pl, c1, met).collect()
    assert len(rows) == met.extras["sme_embeddings"] > 0
    owner = gc_road.owner_np
    for r in rows:
        machines = {owner[r[f"u{u}"]] for u in range(p.n)}
        assert len(machines) == 1  # never crosses a machine
