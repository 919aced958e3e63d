"""Query patterns: small unlabeled, undirected, connected graphs.

The paper's query graphs have at most ~10 vertices, so everything here
(BFS distances, automorphism group, symmetry breaking) is brute force
and exact. Symmetry breaking follows Grochow–Kellis orbit fixing: the
returned ``symmetry_breaking_pairs`` are ordering constraints
``f(a) < f(b)`` which every engine and the DuckDB oracle apply
identically, so each embedding class is enumerated exactly once.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Pattern:
    """An unlabeled undirected connected query graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    def __post_init__(self):
        norm = []
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self loop {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.n > 1 and len(self._components()) != 1:
            raise ValueError("pattern must be connected")

    # ---------------- basic structure ----------------

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        """Adjacency sets."""
        d: dict[int, set[int]] = {u: set() for u in range(self.n)}
        for a, b in self.edges:
            d[a].add(b)
            d[b].add(a)
        return {u: frozenset(s) for u, s in d.items()}

    def degree(self, u: int) -> int:
        """Degree of query vertex ``u``."""
        return len(self.adj[u])

    def has_edge(self, a: int, b: int) -> bool:
        """True iff (a, b) is a pattern edge."""
        return b in self.adj[a]

    def _components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        adj: dict[int, set[int]] = {u: set() for u in range(self.n)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        for s in range(self.n):
            if s in seen:
                continue
            comp = {s}
            q = deque([s])
            while q:
                x = q.popleft()
                for y in adj[x] - comp:
                    comp.add(y)
                    q.append(y)
            seen |= comp
            comps.append(comp)
        return comps

    # ---------------- distances ----------------

    def dist(self, a: int, b: int) -> int:
        """Shortest-path distance between query vertices a and b."""
        return self._dist_from(a)[b]

    def _dist_from(self, s: int) -> dict[int, int]:
        d = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in self.adj[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    q.append(y)
        return d

    def span(self, u: int) -> int:
        """Definition 2: max shortest distance from u to any other vertex."""
        return max(self._dist_from(u).values())

    @cached_property
    def diameter(self) -> int:
        """Longest shortest path between any two query vertices."""
        return max(self.span(u) for u in range(self.n))

    # ---------------- automorphisms & symmetry breaking ----------------

    @cached_property
    def automorphisms(self) -> list[tuple[int, ...]]:
        """All vertex permutations preserving adjacency (brute force).

        Pruned by degree sequence; fine for the ≤10-vertex patterns used
        in the paper.
        """
        deg = [self.degree(u) for u in range(self.n)]
        # candidate images per vertex: same degree
        cands = [
            [v for v in range(self.n) if deg[v] == deg[u]] for u in range(self.n)
        ]
        edge_set = set(self.edges)
        autos: list[tuple[int, ...]] = []

        def ok(perm: list[int], u: int, v: int) -> bool:
            for w in self.adj[u]:
                if w < u:  # w already mapped
                    pw = perm[w]
                    if (min(v, pw), max(v, pw)) not in edge_set:
                        return False
            # non-adjacent check: injectivity + edge-count equality makes
            # a full adjacency-preserving injection an isomorphism, but
            # only once all vertices are mapped; enforce non-edges too so
            # pruning stays sound for partial maps.
            for w in range(u):
                if w not in self.adj[u]:
                    pw = perm[w]
                    if (min(v, pw), max(v, pw)) in edge_set:
                        return False
            return True

        def rec(u: int, perm: list[int], used: set[int]):
            if u == self.n:
                autos.append(tuple(perm))
                return
            for v in cands[u]:
                if v in used or not ok(perm, u, v):
                    continue
                perm.append(v)
                used.add(v)
                rec(u + 1, perm, used)
                perm.pop()
                used.discard(v)

        rec(0, [], set())
        return autos

    @cached_property
    def symmetry_breaking_pairs(self) -> tuple[tuple[int, int], ...]:
        """Ordering constraints (a, b) meaning f(a) < f(b).

        Grochow–Kellis: repeatedly pick the smallest vertex in a
        non-trivial orbit of the remaining automorphism group, constrain
        it below every other orbit member, then restrict the group to
        its stabilizer. Guarantees exactly one representative per
        automorphism class of embeddings survives.
        """
        group = list(self.automorphisms)
        pairs: list[tuple[int, int]] = []
        while len(group) > 1:
            pivot = None
            orbit: set[int] = set()
            for u in range(self.n):
                o = {g[u] for g in group}
                if len(o) > 1:
                    pivot, orbit = u, o
                    break
            assert pivot is not None
            for w in sorted(orbit):
                if w != pivot:
                    pairs.append((pivot, w))
            group = [g for g in group if g[pivot] == pivot]
        return tuple(pairs)

    # ---------------- subpatterns ----------------

    def cliques(self, k: int) -> list[tuple[int, ...]]:
        """All k-cliques of the pattern (sorted tuples)."""
        out = []
        for comb in itertools.combinations(range(self.n), k):
            if all(self.has_edge(a, b) for a, b in itertools.combinations(comb, 2)):
                out.append(comb)
        return out

    def max_clique(self) -> tuple[int, ...]:
        """A maximum clique of the pattern (brute force)."""
        for k in range(self.n, 0, -1):
            cs = self.cliques(k)
            if cs:
                return cs[0]
        return ()


def count_injective_homomorphisms(p: Pattern, adj: dict[int, set[int]]) -> int:
    """Brute-force count of injective homomorphisms of ``p`` into a tiny
    data graph given as an adjacency dict. Test utility only."""
    nodes = list(adj)
    cnt = 0
    for perm in itertools.permutations(nodes, p.n):
        if all(perm[b] in adj[perm[a]] for a, b in p.edges):
            cnt += 1
    return cnt
