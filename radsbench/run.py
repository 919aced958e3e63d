"""RADS benchmark: one named workload, end to end or traced.

    python3 radsbench/run.py --workload dblp-groups --seed 1 --seconds 1 --trace 0

Run from the root of a checkout. Each run starts its own Spark session,
warms it up untimed on the workload's ``tiny`` graph, sets the workload
graph up once (``setup_s``), then runs whole rounds of every engine x
query until ``--seconds`` have passed. Every
operation's embeddings are compared with DuckDB, and its metered numbers
with ``meter_ref.json``, outside the timed region. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

``--trace 1`` adds an untraced round and then a traced set-up and round,
and reports the per-layer metrics of the traced part and its overhead.

``--write-reference`` records the metered numbers of one round for each
``--seed`` given into ``meter_ref.json`` instead of benchmarking.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
T0 = time.perf_counter()


def _prepare_environment() -> None:
    """Make ``repro`` importable here and in Spark's Python workers, and
    keep every temporary file inside the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"radsbench: no program at {SRC}/repro; run from a checkout root")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["TMPDIR"] = tmp
    # a PYSPARK_SUBMIT_ARGS from the environment would override the
    # benchmark's own master and driver settings
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _log(msg: str) -> None:
    print(f"[radsbench] {msg}", file=sys.stderr, flush=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _warm_up(spark, w, seed: int) -> None:
    """Untimed: set up the tiny graph from the same generator and run
    RADS on the workload's queries. RADS carries most of a cold JVM's
    cost (codegen, the first Python workers); the baselines' cold cost
    is a few tenths of a second each and falls in the measured round."""
    import harness

    s = harness.build_setup(spark, w, seed, "tiny", os.path.join(OUT, "tmp"))
    _log(f"warm-up set-up {s.seconds:.1f} s")
    harness.Round(w, s, None, None, engines=("rads",)).run(
        on_op=lambda op: _log(f"warm-up {op.engine}.{op.query} {op.seconds:.1f} s"))
    s.release()


def _reference_for(w, seed: int):
    import harness

    return harness.load_reference().get(w.name, {}).get(str(seed))


def _sum_medians(rounds, engines) -> float:
    """Sum over (engine, query) of the median time over rounds."""
    by_op: dict[tuple[str, str], list[float]] = {}
    for r in rounds:
        for op in r:
            if op.engine in engines:
                by_op.setdefault((op.engine, op.query), []).append(op.seconds)
    return sum(statistics.median(v) for v in by_op.values())


def benchmark(spark, w, seed: int, seconds: float) -> tuple[dict, list]:
    """Timed set-up, then whole rounds for ``seconds``; end-to-end metrics."""
    import harness

    setup = harness.build_setup(spark, w, seed, "lite", os.path.join(OUT, "tmp"))
    oracle = harness.oracle_for(w, setup)
    reference = _reference_for(w, seed)
    if reference is None:
        _log(f"meter reference has no {w.name} seed {seed}; metered numbers not checked")
    _log(f"set-up done at {time.perf_counter() - T0:.1f} s")
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(harness.Round(w, setup, oracle, reference).run(
            on_op=lambda op: _log(f"{op.engine}.{op.query} {op.seconds:.2f} s")))
    setup.release()
    metrics = {
        "setup_s": _metric(setup.seconds, "s"),
        "rads_s": _metric(_sum_medians(rounds, ("rads",)), "s"),
        "baselines_s": _metric(_sum_medians(rounds, tuple(harness.BASELINES)), "s"),
    }
    return metrics, [op for r in rounds for op in r]


def traced(spark, w, seed: int, run_id: str) -> tuple[dict, list]:
    """Untraced set-up + round, then the same traced; per-layer metrics."""
    import harness
    import layers
    from tracer import Tracer

    reference = _reference_for(w, seed)
    plain = harness.build_setup(spark, w, seed, "lite", os.path.join(OUT, "tmp"))
    oracle = harness.oracle_for(w, plain)
    plain_ops = harness.Round(w, plain, oracle, reference).run()
    plain.release()
    untraced_s = plain.seconds + sum(op.seconds for op in plain_ops)

    tracer = Tracer(spark.sparkContext, run_id)
    tracer.install()
    try:
        setup = harness.build_setup(spark, w, seed, "lite", os.path.join(OUT, "tmp"))
        ops = harness.Round(w, setup, oracle, reference).run()
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    tracer.collect()
    metrics = layers.layer_metrics(tracer, setup, ops)
    collect_s = time.perf_counter() - t0
    traced_s = setup.seconds + sum(op.seconds for op in ops) + collect_s
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    metrics["driver.jvm_peak_rss_MB"] = _metric(layers.jvm_peak_rss_mb(spark), "MB")
    stray = {n for n, _, _ in layers.catalogue()} ^ set(metrics)
    if stray:
        raise RuntimeError(f"per-layer metrics out of step with the catalogue: {stray}")
    setup.release()
    tracer.write(
        os.path.join(OUT, f"trace-{w.name}-seed{seed}.json"),
        {"workload": w.name, "seed": seed, "untraced_s": untraced_s,
         "traced_s": traced_s, "metrics": metrics},
    )
    return metrics, plain_ops + ops


def write_reference(spark, w, seeds: list[int]) -> None:
    """Record one round's metered numbers per seed in meter_ref.json."""
    import harness

    for seed in seeds:
        setup = harness.build_setup(spark, w, seed, "lite", os.path.join(OUT, "tmp"))
        ops = harness.Round(w, setup, harness.oracle_for(w, setup), None).run()
        setup.release()
        bad = [f"{op.engine}.{op.query}: {op.problem}" for op in ops if op.failed]
        if bad:
            sys.exit(f"radsbench: not writing a reference from failed operations: {bad}")
        ref = harness.load_reference()
        ref.setdefault(w.name, {})[str(seed)] = {
            f"{op.engine}.{op.query}": op.meter for op in ops
        }
        harness.save_reference(ref)
        _log(f"meter reference written: {w.name} seed {seed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True,
                    help="input seed (several only with --write-reference)")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    _prepare_environment()
    import harness

    if args.workload not in harness.WORKLOADS:
        sys.exit(f"radsbench: unknown workload {args.workload!r}; "
                 f"one of {sorted(harness.WORKLOADS)}")
    if len(args.seed) > 1 and not args.write_reference:
        sys.exit("radsbench: one --seed per benchmark run")
    w = harness.WORKLOADS[args.workload]
    spark = harness.make_session(OUT)
    try:
        if args.write_reference:
            write_reference(spark, w, args.seed)
            return 0
        seed = args.seed[0]
        _log(f"session up at {time.perf_counter() - T0:.1f} s")
        _warm_up(spark, w, seed)
        _log(f"warm-up done at {time.perf_counter() - T0:.1f} s")
        if args.trace:
            metrics, ops = traced(spark, w, seed, f"{w.name}-{seed}")
        else:
            metrics, ops = benchmark(spark, w, seed, args.seconds)
    finally:
        harness.stop_session(spark)
    _log(f"done at {time.perf_counter() - T0:.1f} s")
    failed = sum(op.failed for op in ops)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
