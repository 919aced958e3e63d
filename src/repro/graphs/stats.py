"""Dataset profiling — reproduces the columns of the paper's Table 1:
|V|, |E|, average degree, diameter (estimated by double-sweep BFS,
which is exact on trees and a tight lower bound in practice)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.generators import adjacency_csr, degrees_of
from repro.graphs.partition import _bfs_dist


@dataclass(frozen=True)
class GraphProfile:
    """One row of Table 1."""

    name: str
    n_vertices: int
    n_edges: int
    avg_degree: float
    diameter_est: int

    def row(self) -> dict:
        return {
            "dataset": self.name,
            "|V|": self.n_vertices,
            "|E|": self.n_edges,
            "avg_degree": round(self.avg_degree, 2),
            "diameter": self.diameter_est,
        }


def profile(edges: np.ndarray, n: int, name: str = "") -> GraphProfile:
    """Profile a canonical edge array (Table 1 row).

    Diameter: double-sweep — BFS from an arbitrary vertex of the largest
    component, then BFS from the farthest vertex found; report the
    eccentricity of the second sweep.
    """
    indptr, indices = adjacency_csr(edges, n)
    deg = degrees_of(edges, n)
    start = int(np.argmax(deg))
    d1 = _bfs_dist(indptr, indices, [start], n)
    far = int(np.argmax(d1))
    d2 = _bfs_dist(indptr, indices, [far], n)
    diameter = int(d2.max())
    return GraphProfile(
        name=name,
        n_vertices=n,
        n_edges=len(edges),
        avg_degree=2.0 * len(edges) / max(1, n),
        diameter_est=diameter,
    )
