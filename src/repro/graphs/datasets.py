"""Named datasets + the GraphContext bundle every engine consumes.

Four synthetic analogues of the paper's graphs (DESIGN.md §3), each in
a ``*_tiny`` (unit tests) and ``*_lite`` (benchmarks) size. The
GraphContext carries the distributed representation:

* ``edges``       — symmetric edge DataFrame (src, dst, src_deg,
                    dst_deg), cached; small and replicated, so every
                    baseline join against it is a broadcast join, and the
                    endpoint degrees ride along for the degree filter
* ``degrees``     — (v, deg, bd): degree for candidate filtering and
                    Prop. 1's border distance (-1: no border reachable),
                    both computed once per graph on the driver
* ``owner_np``, ``deg_np``, ``bd_np`` — the driver's ownership, degree
                    and border-distance arrays: replicated facts that
                    RADS's candidate split reads without a Spark job
* ``adjacency``   — one ``sc.broadcast`` of :class:`Adjacency` (CSR
                    adjacency, sorted edge keys, ownership, degrees): the
                    replicated graph RADS's per-machine tasks read
* ``edges_pdf``   — symmetric pandas copy for the DuckDB oracle
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.generators import (
    adjacency_csr,
    barabasi_albert,
    degrees_of,
    grid_graph,
    watts_strogatz,
)
from repro.graphs.partition import bfs_partition, border_distance, hash_partition


@dataclass(frozen=True)
class Adjacency:
    """The data graph as each machine's task reads it: CSR adjacency of
    the symmetric edge set (each row's neighbours sorted), the sorted
    edge keys ``src * n + dst``, and the replicated ownership and degree
    arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    keys: np.ndarray
    owner: np.ndarray
    deg: np.ndarray

    def neighbors(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, w): one pair per edge (v[i], w), grouped by i in order and,
        within i, by ascending w."""
        start, cnt = self.indptr[v], self.deg[v]
        i = np.repeat(np.arange(len(v)), cnt)
        pos = np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        return i, self.indices[start[i] + pos]

    def has_edge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each (a[k], b[k]) is an edge."""
        if not len(self.keys):
            return np.zeros(len(a), bool)
        k = a.astype(np.int64) * len(self.owner) + b
        j = np.minimum(np.searchsorted(self.keys, k), len(self.keys) - 1)
        return self.keys[j] == k

    def local(self, m: int) -> dict[int, set[int]]:
        """Machine ``m``'s local adjacency: every vertex it owns, with
        the neighbours it also owns."""
        own = self.owner == m
        src = np.repeat(np.arange(len(own)), self.deg)
        keep = own[src] & own[self.indices]
        adj: dict[int, set[int]] = {int(v): set() for v in np.flatnonzero(own)}
        for a, b in zip(src[keep].tolist(), self.indices[keep].tolist()):
            adj[a].add(b)
        return adj


@dataclass
class GraphContext:
    """A partitioned data graph as seen by the enumeration engines."""

    spark: SparkSession
    name: str
    n_vertices: int
    n_machines: int
    edges_np: np.ndarray  # canonical (E,2), src < dst
    owner_np: np.ndarray  # (n,) machine per vertex
    deg_np: np.ndarray  # (n,) degree per vertex
    bd_np: np.ndarray  # (n,) border distance per vertex, -1: none reachable
    edges: DataFrame = field(repr=False)  # symmetric, with degrees, cached
    degrees: DataFrame = field(repr=False)  # v, deg, bd
    adjacency: Broadcast = field(repr=False)  # of Adjacency
    edges_pdf: pd.DataFrame = field(repr=False)  # symmetric, for DuckDB

    @property
    def n_edges(self) -> int:
        return len(self.edges_np)

    def unpersist(self) -> None:
        for df in (self.edges, self.degrees):
            df.unpersist()
        self.adjacency.unpersist()


def build_context(
    spark: SparkSession,
    edges_np: np.ndarray,
    n: int,
    *,
    m: int = 4,
    partitioner: str = "bfs",
    seed: int = 0,
    name: str = "graph",
) -> GraphContext:
    """Assemble a GraphContext from a canonical edge array."""
    if isinstance(partitioner, np.ndarray):  # explicit ownership (tests)
        owner_np = partitioner.astype(np.int64)
        m = int(owner_np.max()) + 1
    elif partitioner == "bfs":
        owner_np = bfs_partition(edges_np, n, m, seed=seed)
    elif partitioner == "hash":
        owner_np = hash_partition(n, m)
    else:
        raise ValueError(f"unknown partitioner {partitioner!r}")

    sym = np.concatenate([edges_np, edges_np[:, ::-1]])
    edges_pdf = pd.DataFrame({"src": sym[:, 0], "dst": sym[:, 1]})
    deg_np = degrees_of(edges_np, n)
    bd_np = border_distance(edges_np, owner_np)
    edges = spark.createDataFrame(
        edges_pdf.assign(src_deg=deg_np[sym[:, 0]], dst_deg=deg_np[sym[:, 1]])
    ).cache()
    degrees = spark.createDataFrame(
        pd.DataFrame({"v": np.arange(n, dtype=np.int64), "deg": deg_np, "bd": bd_np})
    ).cache()
    # materialize caches once
    edges.count(), degrees.count()
    indptr, indices = adjacency_csr(edges_np, n)
    keys = np.repeat(np.arange(n, dtype=np.int64), deg_np) * n + indices
    adjacency = spark.sparkContext.broadcast(
        Adjacency(indptr, indices, keys, owner_np, deg_np)
    )
    return GraphContext(
        spark=spark,
        name=name,
        n_vertices=n,
        n_machines=m,
        edges_np=edges_np,
        owner_np=owner_np,
        deg_np=deg_np,
        bd_np=bd_np,
        edges=edges,
        degrees=degrees,
        adjacency=adjacency,
        edges_pdf=edges_pdf,
    )


# ---------------- named datasets ----------------

def _road(side: int, seed: int = 7) -> tuple[np.ndarray, int]:
    e = grid_graph(side, side, drop_frac=0.08, seed=seed)
    return e, side * side


def _dblp(n: int, seed: int = 11) -> tuple[np.ndarray, int]:
    return watts_strogatz(n, 6, 0.1, seed=seed), n


def _lj(n: int, m: int = 6, seed: int = 13) -> tuple[np.ndarray, int]:
    return barabasi_albert(n, m, seed=seed), n


def _uk(n: int, m: int = 8, seed: int = 17) -> tuple[np.ndarray, int]:
    return barabasi_albert(n, m, seed=seed), n


#: name -> (edge-array factory, tiny kwargs, lite kwargs). Lite sizes are
#: chosen so a full 5-engine × 8-query sweep stays within laptop wall
#: time (subgraph enumeration output is super-linear in density) while
#: preserving the paper's cross-dataset ordering of density and diameter.
DATASETS = {
    "roadnet": (_road, {"side": 14}, {"side": 90}),
    "dblp": (_dblp, {"n": 160}, {"n": 6000}),
    "livejournal": (_lj, {"n": 150, "m": 5}, {"n": 2500, "m": 5}),
    "uk2002": (_uk, {"n": 180, "m": 7}, {"n": 4000, "m": 7}),
}


def make_edges(name: str, scale: str = "tiny") -> tuple[np.ndarray, int]:
    """Edge array + vertex count for a named dataset at 'tiny' or 'lite'."""
    fn, tiny_kw, lite_kw = DATASETS[name]
    return fn(**(tiny_kw if scale == "tiny" else lite_kw))


def make_context(
    spark: SparkSession,
    name: str,
    scale: str = "tiny",
    *,
    m: int = 4,
    partitioner: str = "bfs",
) -> GraphContext:
    """Named GraphContext (see DESIGN.md §3 for the paper mapping)."""
    edges_np, n = make_edges(name, scale)
    return build_context(
        spark, edges_np, n, m=m, partitioner=partitioner, name=f"{name}_{scale}"
    )
