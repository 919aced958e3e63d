"""SM-E tests: border distance (Prop. 1's precondition, a per-graph
array), the candidate split, and the per-machine kernel SM-E runs."""
from collections import deque

import numpy as np
import pytest

from repro.core.expand import expand_rounds
from repro.core.metrics import RunMetrics
from repro.core.sme import candidate_split, per_machine, sme_phase
from repro.graphs.datasets import Adjacency, build_context
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
    return dict(enumerate(gc.bd_np.tolist()))


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
    deg_ok = set(np.flatnonzero(path_gc.deg_np >= p.degree(u0)).tolist())
    assert c1v | restv == deg_ok
    # Prop. 1 precondition: C1 vertices have BD >= span
    span = p.span(u0)
    near = {v for v, d in _bd(path_gc).items() if 0 <= d <= span - 1}
    assert c1v.isdisjoint(near)


# ---------------- the per-machine kernel ----------------

def _adj(edges):
    a = {}
    for x, y in edges:
        a.setdefault(x, set()).add(y)
        a.setdefault(y, set()).add(x)
    return a


def _enumerate(edges, pattern, plan, start):
    """Embeddings (tuples indexed by query-vertex id) the kernel finds
    from ``start`` on one machine owning the whole graph of ``edges``."""
    e = np.array(sorted((min(x, y), max(x, y)) for x, y in edges), np.int64)
    A = Adjacency.of(e, np.zeros(int(e.max()) + 1, np.int64))
    start = np.array(sorted(start), np.int64)
    _, rows = expand_rounds(A, pattern, plan, 0, 0, start, plan.rounds, None, False)
    return [tuple(r) for r in rows.tolist()]


def test_kernel_triangle_in_k4():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    res = _enumerate(edges, TRIANGLE, choose_plan(TRIANGLE), range(4))
    assert len(res) == 4  # C(4,3) under symmetry breaking


def test_kernel_matches_bruteforce():
    import random

    rng = random.Random(5)
    edges = {(a, b) for a in range(8) for b in range(a + 1, 8) if rng.random() < 0.5}
    adj = _adj(edges)
    for qn in ("q1", "q2", "q4"):
        p = QUERIES[qn]
        got = len(_enumerate(edges, p, choose_plan(p), adj.keys()))
        want = count_injective_homomorphisms(p, adj) // len(p.automorphisms)
        assert got == want, qn


def test_kernel_respects_start_candidates():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    pl = choose_plan(TRIANGLE)
    all_res = _enumerate(edges, TRIANGLE, pl, _adj(edges).keys())
    some = _enumerate(edges, TRIANGLE, pl, [2])
    assert set(some) <= set(all_res)
    # results from a start set only map the start vertex into that set
    u0 = pl.units[0].piv
    assert all(r[u0] == 2 for r in some)


# ---------------- SM-E locality (Prop. 1 end-to-end) ----------------

@pytest.mark.parametrize("fixture", ["gc_road", "gc_dblp", "gc_dblp_hash"])
def test_sme_embeddings_are_fully_local(request, fixture):
    gc = request.getfixturevalue(fixture)
    p = QUERIES["q1"]
    pl = choose_plan(p)
    c1, _ = candidate_split(gc, p, pl.units[0].piv)
    met = RunMetrics("rads", "q1", gc.name)
    rows = per_machine(gc, [sme_phase(p, pl, c1, met)], p.n).collect()
    assert len(rows) == met.extras["sme_embeddings"]
    # hash partitioning leaves no tiny-DBLP vertex far from a border
    assert (len(rows) > 0) == (fixture != "gc_dblp_hash")
    owner = gc.owner_np
    for r in rows:
        machines = {owner[r[f"u{u}"]] for u in range(p.n)}
        assert len(machines) == 1  # never crosses a machine
    # Prop. 1 inside each machine's kernel: every edge is decided on the
    # spot, so no round fetches a pivot or leaves an edge pending
    A = gc.adjacency.value
    for m in np.unique(owner[c1]).tolist():
        records, _ = expand_rounds(A, p, pl, m, 0, c1[owner[c1] == m], pl.rounds, None, True)
        assert [(r.fetched, r.pending_pairs) for r in records] == [(0, 0)] * len(records)
