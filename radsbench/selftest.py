"""Self-test of the benchmark's checks on a tiny graph (under a minute).

    python3 radsbench/selftest.py

Proves that the checks catch what they are for: one dropped embedding
and one altered metered byte each make the operation fail with a named
reason, as do an operation that raises and one that reports failed.
Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

import run


def main() -> int:
    run._prepare_environment()
    import harness

    w = harness.WORKLOADS["dblp-groups"]
    problems: list[str] = []

    def expect(label: str, ok: bool) -> None:
        print(f"[selftest] {'ok  ' if ok else 'FAIL'} {label}", file=sys.stderr)
        if not ok:
            problems.append(label)

    import layers

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(f)["per_layer"]]
    expect("BENCHMARK.json lists exactly the traced per-layer metrics",
           listed == layers.catalogue())
    spark = harness.make_session(run.OUT, cores=2)
    try:
        setup = harness.build_setup(spark, w, 0, "tiny", os.path.join(run.OUT, "tmp"))
        e2, o2 = harness.relabel(setup.edges, setup.owner, 5)
        expect("relabelling keeps the degree sequence and the partition sizes",
               np.array_equal(np.sort(np.bincount(e2.ravel())),
                              np.sort(np.bincount(setup.edges.ravel())))
               and np.array_equal(np.bincount(o2), np.bincount(setup.owner)))
        oracle = harness.oracle_for(w, setup)
        qn = w.queries[0]
        good = harness.Round(w, setup, oracle, None).one("rads", qn)
        expect("an untouched RADS run equals DuckDB", not good.failed and not good.wrong)
        ref = {f"rads.{qn}": dict(good.meter)}
        again = harness.Round(w, setup, oracle, ref).one("rads", qn)
        expect("a rerun matches its own meter reference", not again.failed)

        real_run_engine = harness.run_engine

        def dropping(*args):
            df, met = real_run_engine(*args)
            return df.exceptAll(df.limit(1)), met

        harness.run_engine = dropping
        try:
            dropped = harness.Round(w, setup, oracle, None).one("psgl", qn)
        finally:
            harness.run_engine = real_run_engine
        expect("one dropped embedding fails the operation",
               dropped.failed and dropped.wrong and "rows differ" in dropped.problem)

        key = "peak_intermediate_bytes"
        altered = {f"rads.{qn}": {**good.meter, key: good.meter[key] + 1}}
        bad = harness.Round(w, setup, oracle, altered).one("rads", qn)
        expect("one altered metered byte fails the operation, by name",
               bad.failed and bad.wrong and f"rads.{qn}.{key}" in bad.problem)

        def raising(*args):
            raise RuntimeError("injected")

        harness.run_engine = raising
        try:
            raised = harness.Round(w, setup, oracle, None).one("seed", qn)
        finally:
            harness.run_engine = real_run_engine
        expect("an operation that raises counts as failed", raised.failed)

        def reporting_failed(*args):
            df, met = real_run_engine(*args)
            met.failed, met.fail_reason = True, "injected"
            return None, met

        harness.run_engine = reporting_failed
        try:
            flagged = harness.Round(w, setup, oracle, None).one("crystal", qn)
        finally:
            harness.run_engine = real_run_engine
        expect("an operation that reports failed counts as failed",
               flagged.failed and "reported failed" in flagged.problem)
        setup.release()
    finally:
        harness.stop_session(spark)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
