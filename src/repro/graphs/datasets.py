"""Named datasets + the GraphContext bundle every engine consumes.

Four synthetic analogues of the paper's graphs (DESIGN.md §3), each in
a ``*_tiny`` (unit tests) and ``*_lite`` (benchmarks) size. The
GraphContext carries the distributed representation:

* ``edges``       — symmetric edge DataFrame (src, dst), cached; small
                    and replicated like ``owner``, so every join against
                    it is a broadcast join
* ``owner``       — vertex ownership (v, machine); the paper replicates
                    this map on every machine, so engines may broadcast it
* ``edges_o``     — edges joined with both endpoint owners, cached
* ``degrees``     — (v, deg, bd): degree for candidate filtering and
                    Prop. 1's border distance (-1: no border reachable),
                    both computed once per graph on the driver
* ``owner_np``, ``deg_np``, ``bd_np`` — the driver's arrays behind
                    ``owner`` and ``degrees``: replicated facts that RADS's
                    bookkeeping (candidate split, fetch cache) reads
                    without a Spark job
* ``edges_pdf``   — symmetric pandas copy for the DuckDB oracle
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generators import (
    barabasi_albert,
    degrees_of,
    grid_graph,
    watts_strogatz,
)
from repro.graphs.partition import bfs_partition, border_distance, hash_partition


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
    edges: DataFrame = field(repr=False)  # symmetric, cached
    owner: DataFrame = field(repr=False)
    edges_o: DataFrame = field(repr=False)  # src,dst,src_m,dst_m
    degrees: DataFrame = field(repr=False)  # v, deg, bd
    edges_pdf: pd.DataFrame = field(repr=False)  # symmetric, for DuckDB

    @property
    def n_edges(self) -> int:
        return len(self.edges_np)

    def vertex_frame(self, v: np.ndarray) -> DataFrame:
        """(v, machine) of the vertex ids ``v`` as a local relation: no
        Spark job builds it, and an empty ``v`` keeps its schema."""
        v = np.asarray(v, dtype=np.int64)
        pdf = pd.DataFrame({"v": v, "machine": self.owner_np[v].astype(np.int32)})
        return self.spark.createDataFrame(pdf, "v long, machine int")

    def unpersist(self) -> None:
        for df in (self.edges, self.edges_o, self.degrees, self.owner):
            df.unpersist()


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
    edges = spark.createDataFrame(edges_pdf).cache()
    owner_pdf = pd.DataFrame(
        {"v": np.arange(n, dtype=np.int64), "machine": owner_np.astype(np.int32)}
    )
    owner = spark.createDataFrame(owner_pdf).cache()
    edges_o = (
        edges.join(F.broadcast(owner).withColumnsRenamed({"v": "src", "machine": "src_m"}), "src")
        .join(F.broadcast(owner).withColumnsRenamed({"v": "dst", "machine": "dst_m"}), "dst")
        .select("src", "dst", "src_m", "dst_m")
        .cache()
    )
    deg_np = degrees_of(edges_np, n)
    bd_np = border_distance(edges_np, owner_np)
    degrees = spark.createDataFrame(
        pd.DataFrame({"v": np.arange(n, dtype=np.int64), "deg": deg_np, "bd": bd_np})
    ).cache()
    # materialize caches once
    edges.count(), edges_o.count(), degrees.count(), owner.count()
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
        owner=owner,
        edges_o=edges_o,
        degrees=degrees,
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
