"""Region-group tests (Algorithm 3): coverage, cap, proximity behaviour
on the paper's Figure 6 scenario, and the grouping as each machine's
Spark task runs it."""
from collections import Counter
from typing import Iterable

import numpy as np
import pytest

from repro.core.regions import greedy_region_groups
from repro.core.sme import per_machine


def proximity(adj: dict[int, set[int]], v: int, rg: Iterable[int]) -> float:
    """Eq. (5): fraction of v's neighbors adjacent to the group."""
    nb = set()
    for u in rg:
        nb |= adj.get(u, set())
    d = adj.get(v, set())
    return len(d & nb) / max(1, len(d))


def _fig6_adj():
    """Figure 6 flavour: v0 and v1 share most neighbours; v2, v3 live in
    another neighbourhood."""
    edges = [
        (0, 10), (0, 11), (0, 12),
        (1, 10), (1, 11), (1, 13),
        (2, 20), (2, 21), (2, 22),
        (3, 20), (3, 21), (3, 23),
        (10, 20),
    ]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def test_proximity_eq5():
    adj = _fig6_adj()
    assert proximity(adj, 1, [0]) == pytest.approx(2 / 3)  # v10,v11 of 3
    assert proximity(adj, 2, [0]) == pytest.approx(0.0)


def test_grouping_prefers_similar_vertices():
    adj = _fig6_adj()
    groups = greedy_region_groups(adj, [0, 1, 2, 3], max_group_size=2, seed=0)
    assert sorted(g.tolist() for g in groups) == [[0, 1], [2, 3]]


def test_grouping_covers_everything():
    adj = _fig6_adj()
    groups = greedy_region_groups(adj, [0, 1, 2, 3], max_group_size=3, seed=1)
    assert sorted(np.concatenate(groups).tolist()) == [0, 1, 2, 3]


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_group_size_cap(cap):
    adj = _fig6_adj()
    groups = greedy_region_groups(adj, [0, 1, 2, 3], max_group_size=cap, seed=0)
    assert max(map(len, groups)) <= cap


def test_disconnected_candidates_get_groups():
    adj = {0: {10}, 1: {11}, 10: {0}, 11: {1}}
    groups = greedy_region_groups(adj, [0, 1], max_group_size=5, seed=0)
    # zero proximity → separate regions
    assert sorted(g.tolist() for g in groups) == [[0], [1]]


def test_spark_region_groups(gc_dblp):
    """Algorithm 3 in one Spark task per machine, over its local
    adjacency: (machine, v, g) rows."""
    cands = np.flatnonzero(gc_dblp.deg_np >= 2)

    def group_local(m, A, vs):
        for g, members in enumerate(greedy_region_groups(A.local(m), vs, 10, seed=m)):
            yield np.column_stack([np.full(len(members), m), members, np.full(len(members), g)])

    out = per_machine(gc_dblp, [(cands, group_local, lambda records: None)], 3)
    rows = [tuple(r) for r in out.collect()]  # (machine, v, g)
    assert sorted(v for _, v, _ in rows) == cands.tolist()  # each exactly once
    sizes = Counter((m, g) for m, _, g in rows)
    assert max(sizes.values()) <= 10
    # groups respect machine ownership
    for m, v, _ in rows:
        assert gc_dblp.owner_np[v] == m
