"""Workloads, set-up, operations and result checks of the RADS benchmark.

Everything here reaches the program only through its public entry points
(``repro.graphs``, ``repro.core.engine.run_rads``, the ``run_*`` baselines,
``repro.baselines.crystal.build_clique_index``), looked up on their module
at call time, so the outside-in tracer in ``tracer.py`` sees every call.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

#: machines of the simulated cluster (the paper's main cluster has 10)
MACHINES = 10
#: simulated per-machine memory of the budgeted workloads
BUDGET_128MB = 128 << 20
#: the four baselines, each (module, entry point) as ``repro.tables`` calls them
BASELINES = {
    "psgl": ("repro.baselines.psgl", "run_psgl"),
    "twintwig": ("repro.baselines.twintwig", "run_twintwig"),
    "seed": ("repro.baselines.seed", "run_seed"),
    "crystal": ("repro.baselines.crystal", "run_crystal"),
}
ENGINES = ("rads", *BASELINES)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "meter_ref.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a dataset generator at a fixed size, the
    queries run on it and the engine configuration."""

    name: str
    dataset: str  # key of repro.graphs.datasets.DATASETS
    size: dict  # generator size kwargs (the dataset's own other parameters)
    queries: tuple[str, ...]
    bytes_budget: int | None
    measure_compression: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Watts-Strogatz, 128 MB budget: RADS runs region groups one
        # after another (Phi = budget/8), the per-group driver loop
        Workload("dblp-groups", "dblp", {"n": 1200}, ("q1",), BUDGET_128MB),
        # perturbed grid, no budget, Table 3's call: Prop. 1 sends most
        # start candidates to SM-E; the only workload that runs emtrie
        Workload("road-sme", "roadnet", {"side": 40}, ("q1",), None,
                 measure_compression=True),
    )
}


def _mod(name: str):
    return importlib.import_module(name)


# ---------------- Spark session ----------------

def make_session(out_dir: str, cores: int | None = None):
    """A local session with the benchmark's fixed settings. Spark's
    scratch files and the driver's temp files stay under ``out_dir``."""
    from pyspark.sql import SparkSession

    k = cores or min(4, os.cpu_count() or 1)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spark = (
        SparkSession.builder.master(f"local[{k}]")
        .appName("radsbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .config("spark.local.dir", os.path.join(out_dir, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(out_dir, "warehouse"))
        .config("spark.sql.shuffle.partitions", 32)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # the status store must keep every job of the largest traced span
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .config("spark.ui.retainedTasks", 100000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 — last resort at shutdown
            proc.kill()
            proc.wait()


# ---------------- graphs ----------------

@dataclass
class Setup:
    """A partitioned workload graph with its Crystal index."""

    gc: object  # repro.graphs.datasets.GraphContext
    index: object  # repro.baselines.crystal.CliqueIndex
    index_dir: str
    edges: np.ndarray  # canonical (E,2) after relabelling
    owner: np.ndarray
    seconds: float

    def release(self) -> None:
        self.gc.unpersist()
        shutil.rmtree(self.index_dir, ignore_errors=True)


def relabel(edges: np.ndarray, owner: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rename vertex ids by a permutation drawn from ``seed``.

    The structure and its partition stay those of the generator, so the
    counts the workloads are chosen for (embeddings, C1 sizes, region
    groups) do not move between seeds; the ids the engines see do, and
    with them symmetry breaking, shuffle hashing and intermediate sizes.
    """
    n = len(owner)
    perm = np.random.default_rng(seed).permutation(n)
    e = perm[edges]
    e = np.stack([e.min(axis=1), e.max(axis=1)], axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    new_owner = np.empty_like(owner)
    new_owner[perm] = owner
    return e, new_owner


def build_setup(spark, w: Workload, seed: int, scale: str, tmp_root: str) -> Setup:
    """Generate, partition, relabel, build the context and the Crystal
    index — the timed set-up. ``scale='tiny'`` gives the warm-up graph."""
    datasets = _mod("repro.graphs.datasets")
    partition = _mod("repro.graphs.partition")
    crystal = _mod("repro.baselines.crystal")
    t0 = time.perf_counter()
    factory, tiny_kw, _ = datasets.DATASETS[w.dataset]
    edges, n = factory(**(tiny_kw if scale == "tiny" else w.size))
    owner = partition.bfs_partition(edges, n, MACHINES)
    edges, owner = relabel(edges, owner, seed)
    gc = datasets.build_context(
        spark, edges, n, m=MACHINES, partitioner=owner,
        name=f"{w.dataset}_{scale}_s{seed}",
    )
    index_dir = tempfile.mkdtemp(prefix="crystal_", dir=tmp_root)
    index = crystal.build_clique_index(gc, index_dir)
    return Setup(gc, index, index_dir, edges, owner, time.perf_counter() - t0)


# ---------------- operations ----------------

def _accepted(fn, kwargs: dict) -> dict:
    """Only the keyword arguments ``fn`` still accepts."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def run_engine(setup: Setup, w: Workload, engine: str, qn: str):
    """One operation: ``engine`` on query ``qn``, configured as
    ``repro.tables`` configures the Figures 8-11 rows."""
    pattern = _mod("repro.query.queries").QUERIES[qn]
    b = w.bytes_budget
    if engine == "rads":
        fn = _mod("repro.core.engine").run_rads
        kw = {
            "bytes_budget": b,
            "sequential_groups": b is not None,
            "group_mem_bytes": None if b is None else b // 8,
            "measure_compression": w.measure_compression,
        }
        return fn(setup.gc, pattern, qn, **_accepted(fn, kw))
    mod, name = BASELINES[engine]
    fn = getattr(_mod(mod), name)
    kw = _accepted(fn, {"bytes_budget": b})
    if engine == "crystal":
        return fn(setup.gc, pattern, setup.index, qn, **kw)
    return fn(setup.gc, pattern, qn, **kw)


# ---------------- result checks ----------------

def sorted_rows(a: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, duplicates kept."""
    if len(a) == 0:
        return a
    return a[np.lexsort(a.T[::-1])]


def oracle_rows(edges: np.ndarray, qn: str) -> np.ndarray:
    """Embeddings of ``qn`` by DuckDB over the symmetric edge table."""
    import duckdb
    import pandas as pd

    pattern = _mod("repro.query.queries").QUERIES[qn]
    sql = _mod("repro.sqlgen").pattern_sql(pattern)
    sym = np.concatenate([edges, edges[:, ::-1]])
    table = pd.DataFrame({"src": sym[:, 0], "dst": sym[:, 1]})
    con = duckdb.connect()
    try:
        con.register("edges", table)
        got = con.execute(sql).fetchdf()
    finally:
        con.close()
    cols = [f"u{u}" for u in range(pattern.n)]
    return sorted_rows(got[cols].to_numpy(dtype=np.int64).reshape(-1, pattern.n))


def engine_rows(df, n: int) -> np.ndarray:
    cols = [f"u{u}" for u in range(n)]
    pdf = df.select(*cols).toPandas()
    return sorted_rows(pdf.to_numpy(dtype=np.int64).reshape(-1, n))


def row_problem(got: np.ndarray, expected: np.ndarray) -> str | None:
    """None when ``got`` equals the oracle's rows, else what differs."""
    if got.shape != expected.shape:
        return f"{len(got)} rows, oracle has {len(expected)}"
    if not np.array_equal(got, expected):
        bad = int(np.argmax((got != expected).any(axis=1)))
        return f"row {bad} is {got[bad].tolist()}, oracle has {expected[bad].tolist()}"
    return None


# ---------------- meter reference ----------------

def meter_record(met) -> dict:
    """The metered numbers of one run (values of the paper's cost model)."""
    rec = {f"comm.{k}": int(v) for k, v in sorted(met.comm_breakdown.items())}
    rec["peak_intermediate_bytes"] = int(met.peak_intermediate_bytes)
    rec["rounds"] = int(met.rounds)
    rec["failed"] = bool(met.failed)
    for key in ("peak_group_trie_bytes", "el_bytes", "et_bytes", "n_region_groups"):
        if key in met.extras:
            rec[key] = int(met.extras[key])
    return rec


def meter_mismatches(op: str, got: dict, ref: dict) -> list[str]:
    """Names of metered numbers that differ from the reference."""
    return [
        f"{op}.{k}: {got.get(k)} != reference {ref.get(k)}"
        for k in sorted(set(got) | set(ref))
        if got.get(k) != ref.get(k)
    ]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def save_reference(ref: dict, path: str = REFERENCE_PATH) -> None:
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------- one round of operations ----------------

@dataclass
class OpResult:
    engine: str
    query: str
    seconds: float
    failed: bool
    problem: str = ""
    wrong: bool = False  # rows or metered numbers differ from the references
    meter: dict = field(default_factory=dict)
    metrics: object = None  # RunMetrics, for the trace


class Round:
    """Runs every engine x query once and checks each result outside
    its timed region: rows against ``oracle`` (query -> sorted rows) and
    metered numbers against ``reference`` (op -> record); None skips."""

    def __init__(self, w: Workload, setup: Setup, oracle: dict | None,
                 reference: dict | None, engines: tuple[str, ...] = ENGINES):
        self.w, self.setup, self.oracle, self.reference = w, setup, oracle, reference
        self.engines = engines

    def run(self, on_op=None) -> list[OpResult]:
        out = []
        for qn in self.w.queries:
            for engine in self.engines:
                out.append(self.one(engine, qn))
                if on_op is not None:
                    on_op(out[-1])
        return out

    def one(self, engine: str, qn: str) -> OpResult:
        t0 = time.perf_counter()
        try:
            df, met = run_engine(self.setup, self.w, engine, qn)
        except Exception:  # noqa: BLE001 — a raising operation counts as failed
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return OpResult(engine, qn, dt, True, "raised")
        dt = time.perf_counter() - t0
        res = OpResult(engine, qn, dt, False, meter=meter_record(met), metrics=met)
        problems = []
        if met.failed or df is None:
            problems.append(f"reported failed: {met.fail_reason}")
        elif self.oracle is not None:
            n = _mod("repro.query.queries").QUERIES[qn].n
            p = row_problem(engine_rows(df, n), self.oracle[qn])
            if p:
                problems.append(f"rows differ from DuckDB: {p}")
                res.wrong = True
        if self.reference is not None:
            ref = self.reference.get(f"{engine}.{qn}", {})
            bad = meter_mismatches(f"{engine}.{qn}", res.meter, ref)
            problems += bad
            res.wrong = res.wrong or bool(bad)
        if problems:
            res.failed = True
            res.problem = "; ".join(problems)
            print(f"[radsbench] {engine}.{qn} FAILED: {res.problem}", file=sys.stderr)
        return res


def oracle_for(w: Workload, setup: Setup) -> dict:
    return {qn: oracle_rows(setup.edges, qn) for qn in w.queries}
