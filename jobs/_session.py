"""Shared spark-submit session helper for the job entrypoints.

Jobs are functions over a SparkSession; when launched via spark-submit
(or plain ``python jobs/<name>.py``) this builds the session with the
same conventions as conftest.py (automatic broadcast joins disabled;
joins against the replicated graph tables — edges, degrees — carry
explicit broadcast hints).

Every job imports this module before anything from ``repro``: importing
it puts the checkout's ``src/`` on ``sys.path`` and on ``PYTHONPATH``,
and the session passes that on to Spark's Python workers (RADS's
per-machine ``mapInPandas`` tasks unpickle ``repro`` functions and the
broadcast adjacency there), so the jobs run from a clean shell without
installing the package.

Each job writes the rows it prints to ``<out_dir>/<name>.json``
(``save_rows``); ``out_dir`` is the checkout's ``results/`` unless the
job's last argument names another directory. ``make_experiments.py``
renders EXPERIMENTS.md from ``results/``.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: where the jobs write their rows and make_experiments.py reads them
RESULTS = os.path.join(ROOT, "results")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
)

from pyspark.sql import SparkSession  # noqa: E402


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        # under spark-submit the JVM starts before this module runs, so
        # its workers see src/ only through the executor environment
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .getOrCreate()
    )


def save_rows(name: str, rows: list[dict], out_dir: str = RESULTS) -> None:
    """Write one table's rows to ``<out_dir>/<name>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as f:
        json.dump(rows, f, indent=1)
