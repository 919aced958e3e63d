"""The jobs/ entrypoints: the one producer of results/*.json and of
EXPERIMENTS.md, run the way the README runs them."""
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = os.path.join(ROOT, "jobs")
RESULTS = os.path.join(ROOT, "results")


def _committed_columns(name: str) -> list[str]:
    with open(os.path.join(RESULTS, f"{name}.json")) as f:
        return list(json.load(f)[0])


def test_make_experiments_renders_committed_file():
    sys.path.insert(0, JOBS)
    try:
        make_experiments = importlib.import_module("make_experiments")
    finally:
        sys.path.remove(JOBS)
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        assert make_experiments.render() == f.read()


def test_compression_job_under_spark_submit(tmp_path):
    # a clean environment: the job itself must get src/ to the driver
    # and to the Python workers of RADS's per-machine tasks
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[2]", PYSPARK_PYTHON=sys.executable)
    proc = subprocess.run(
        ["spark-submit", "--conf", "spark.driver.host=127.0.0.1",
         os.path.join(JOBS, "table3_table4_compression.py"), "tiny", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    for name in ("table3_compress_roadnet", "table4_compress_dblp"):
        with open(tmp_path / f"{name}.json") as f:
            rows = json.load(f)
        assert len(rows) == 8
        assert all(list(r) == _committed_columns(name) for r in rows)
