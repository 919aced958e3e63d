"""Graph partitioners: vertex → machine assignment.

The paper partitions with METIS multilevel k-way. Offline we substitute
``bfs_partition`` — balanced multi-seed BFS region growing — which has
the property RADS actually exploits: locality (small edge-cut, so most
vertices sit far from a partition border and qualify for SM-E).
``hash_partition`` is the locality-free contrast used in tests.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.graphs.generators import adjacency_csr


def hash_partition(n: int, m: int) -> np.ndarray:
    """owner[v] = mixed-hash(v) mod m. No locality at all."""
    v = np.arange(n, dtype=np.uint64)
    return ((v * np.uint64(2654435761)) % np.uint64(1 << 32) % np.uint64(m)).astype(
        np.int64
    )


def bfs_partition(edges: np.ndarray, n: int, m: int, *, seed: int = 0) -> np.ndarray:
    """Metis-lite: grow m regions by round-robin BFS from spread seeds.

    Seeds are picked greedily far apart (first random, each next seed is
    a vertex maximizing hop distance to the chosen seeds). Regions then
    expand one frontier vertex per machine per turn, which keeps sizes
    balanced within a few percent. Vertices in unreachable components
    are assigned to the currently smallest region.
    """
    if m < 1:
        raise ValueError("m >= 1")
    indptr, indices = adjacency_csr(edges, n)
    rng = np.random.default_rng(seed)
    owner = np.full(n, -1, dtype=np.int64)

    # --- spread seeds by repeated farthest-point BFS ---
    seeds = [int(rng.integers(0, n))]
    dist = _bfs_dist(indptr, indices, [seeds[0]], n)
    for _ in range(1, m):
        cand = int(np.argmax(np.where(dist < 0, -1, dist)))
        if cand in seeds or dist[cand] <= 0:
            cand = int(rng.integers(0, n))
            while cand in seeds:
                cand = int(rng.integers(0, n))
        seeds.append(cand)
        d2 = _bfs_dist(indptr, indices, [cand], n)
        both = np.where((dist >= 0) & (d2 >= 0), np.minimum(dist, d2), np.maximum(dist, d2))
        dist = both

    queues = [deque([s]) for s in seeds]
    for t, s in enumerate(seeds):
        if owner[s] == -1:
            owner[s] = t
    alive = True
    while alive:
        alive = False
        for t in range(m):
            q = queues[t]
            while q:
                x = q.popleft()
                if owner[x] != t and owner[x] != -1:
                    continue
                owner[x] = t
                alive = True
                for y in indices[indptr[x]: indptr[x + 1]]:
                    if owner[y] == -1:
                        owner[y] = t
                        q.append(int(y))
                break
    # leftovers (disconnected pieces): to smallest region
    sizes = np.bincount(owner[owner >= 0], minlength=m)
    for v in np.nonzero(owner == -1)[0]:
        t = int(np.argmin(sizes))
        owner[v] = t
        sizes[t] += 1
    return owner


def _bfs_dist(
    indptr: np.ndarray, indices: np.ndarray, sources: Iterable[int], n: int
) -> np.ndarray:
    """Hop distance from the nearest of ``sources``; -1 where none reaches."""
    d = np.full(n, -1, dtype=np.int64)
    q = deque(int(s) for s in sources)
    for s in q:
        d[s] = 0
    while q:
        x = q.popleft()
        for y in indices[indptr[x]: indptr[x + 1]]:
            if d[y] < 0:
                d[y] = d[x] + 1
                q.append(int(y))
    return d


def border_distance(edges: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Prop. 1's BD(v) for every vertex: hops to the nearest border vertex
    (one with a foreign neighbour), -1 where none is reachable. A shortest
    path to the border never leaves the partition, so the multi-source BFS
    runs over local edges only."""
    cross = owner[edges[:, 0]] != owner[edges[:, 1]]
    indptr, indices = adjacency_csr(edges[~cross], len(owner))
    return _bfs_dist(indptr, indices, np.unique(edges[cross]), len(owner))


def edge_cut(edges: np.ndarray, owner: np.ndarray) -> int:
    """Number of undirected edges whose endpoints live on different machines."""
    return int((owner[edges[:, 0]] != owner[edges[:, 1]]).sum())
