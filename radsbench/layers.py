"""Per-layer metrics of a traced set-up + round.

Times (``*_s``) are span wall times; a layer's ``self_s`` excludes its
child spans. Jobs, tasks, executor time and shuffle bytes are the
span's own (its job group), so the layers partition the run's jobs.
Counts come from what the layer returned or from the run's metrics.
A layer that did not run reports 0.
"""
from __future__ import annotations

import harness

BASELINE_LAYERS = tuple(harness.BASELINES)


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spans(tracer, layer: str, name: str | None = None):
    return [s for s in tracer.spans if s.layer == layer and (name is None or s.name == name)]


def _sum(spans, attr: str) -> float:
    return sum(getattr(s, attr) if attr != "seconds" else s.seconds for s in spans)


def _count(df) -> int:
    return 0 if df is None else int(df.count())


def layer_metrics(tracer, setup, ops) -> dict:
    from repro.graphs.partition import edge_cut

    out: dict[str, dict] = {}
    graphs = _spans(tracer, "graphs")
    out["graphs.build_s"] = _m(_sum(graphs, "seconds"), "s")
    out["graphs.jobs"] = _m(_sum(graphs, "jobs"), "count")
    out["graphs.edge_cut"] = _m(edge_cut(setup.edges, setup.owner), "count")

    cidx = _spans(tracer, "crystal_index")
    out["crystal_index.build_s"] = _m(_sum(cidx, "seconds"), "s")
    out["crystal_index.jobs"] = _m(_sum(cidx, "jobs"), "count")
    out["crystal_index.MB"] = _m(setup.index.index_bytes / 1e6, "MB")

    rads_mets = [op.metrics for op in ops if op.engine == "rads" and op.metrics is not None]
    rads_embeddings = sum(m.n_embeddings for m in rads_mets)

    split = _spans(tracer, "sme", "split_candidates")
    enum = _spans(tracer, "sme", "sme_enumerate")
    sme_emb = sum(_count(s.result) for s in enum)
    out["sme.split_s"] = _m(_sum(split, "seconds"), "s")
    out["sme.split_jobs"] = _m(_sum(split, "jobs"), "count")
    out["sme.enumerate_s"] = _m(_sum(enum, "seconds"), "s")
    out["sme.enumerate_jobs"] = _m(_sum(enum, "jobs"), "count")
    out["sme.c1_candidates"] = _m(sum(_count(s.result[0]) for s in split), "count")
    out["sme.rest_candidates"] = _m(sum(_count(s.result[1]) for s in split), "count")
    out["sme.embeddings"] = _m(sme_emb, "count")
    out["sme.share"] = _m(sme_emb / rads_embeddings if rads_embeddings else 0.0, "ratio")

    regions = _spans(tracer, "regions")
    out["regions.s"] = _m(_sum(regions, "seconds"), "s")
    out["regions.jobs"] = _m(_sum(regions, "jobs"), "count")
    out["regions.groups"] = _m(
        sum(s.result.select("machine", "g").distinct().count() for s in regions), "count"
    )
    out["regions.max_group_size"] = _m(
        max((int(s.args[2]) for s in regions if len(s.args) > 2), default=0), "count"
    )

    rmeef = _spans(tracer, "rmeef")
    out["rmeef.s"] = _m(_sum(rmeef, "seconds"), "s")
    out["rmeef.self_s"] = _m(_sum(rmeef, "self_s"), "s")
    out["rmeef.jobs"] = _m(_sum(rmeef, "jobs"), "count")
    out["rmeef.tasks"] = _m(_sum(rmeef, "tasks"), "count")
    out["rmeef.executor_s"] = _m(_sum(rmeef, "executor_s"), "s")
    out["rmeef.idle_s"] = _m(sum(tracer.idle_s(s) for s in rmeef), "s")
    out["rmeef.shuffle_read_MB"] = _m(_sum(rmeef, "shuffle_read_MB"), "MB")
    out["rmeef.shuffle_write_MB"] = _m(_sum(rmeef, "shuffle_write_MB"), "MB")
    out["rmeef.rounds"] = _m(sum(m.rounds for m in rads_mets) if rmeef else 0, "count")
    out["rmeef.peak_ec_rows"] = _m(
        max((m.peak_intermediate_rows for m in rads_mets), default=0) if rmeef else 0, "count"
    )
    out["rmeef.embeddings"] = _m(sum(_count(s.result) for s in rmeef), "count")
    out["rmeef.peak_group_trie_MB"] = _m(
        max((m.extras.get("peak_group_trie_bytes", 0) for m in rads_mets), default=0) / 1e6,
        "MB",
    )
    out["rmeef.fetchV_MB"] = _m(
        sum(m.comm_breakdown.get("fetchV", 0) for m in rads_mets) / 1e6, "MB"
    )
    out["rmeef.verifyE_MB"] = _m(
        sum(m.comm_breakdown.get("verifyE", 0) for m in rads_mets) / 1e6, "MB"
    )

    emtrie = _spans(tracer, "emtrie")
    out["emtrie.s"] = _m(_sum(emtrie, "seconds"), "s")
    out["emtrie.jobs"] = _m(_sum(emtrie, "jobs"), "count")
    out["emtrie.el_MB"] = _m(
        sum(m.extras.get("el_bytes", 0) for m in rads_mets) / 1e6 if emtrie else 0.0, "MB"
    )
    out["emtrie.et_MB"] = _m(
        sum(m.extras.get("et_bytes", 0) for m in rads_mets) / 1e6 if emtrie else 0.0, "MB"
    )

    engine = _spans(tracer, "engine")
    out["engine.self_s"] = _m(_sum(engine, "self_s"), "s")
    out["engine.jobs"] = _m(_sum(engine, "jobs"), "count")
    out["engine.embeddings"] = _m(rads_embeddings, "count")

    for b in BASELINE_LAYERS:
        spans = _spans(tracer, b)
        mets = [op.metrics for op in ops if op.engine == b and op.metrics is not None]
        out[f"{b}.s"] = _m(_sum(spans, "seconds"), "s")
        out[f"{b}.jobs"] = _m(_sum(spans, "jobs"), "count")
        out[f"{b}.shuffle_write_MB"] = _m(_sum(spans, "shuffle_write_MB"), "MB")
        out[f"{b}.comm_MB"] = _m(sum(m.comm_bytes for m in mets) / 1e6, "MB")

    out["spark.jobs"] = _m(_sum(tracer.spans, "jobs"), "count")
    out["spark.tasks"] = _m(_sum(tracer.spans, "tasks"), "count")
    out["spark.executor_s"] = _m(_sum(tracer.spans, "executor_s"), "s")
    return out


def jvm_peak_rss_mb(spark) -> float:
    """Peak resident memory of the driver JVM (VmHWM), in MB."""
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


#: every per-layer metric: (name, unit, which direction is better)
def catalogue() -> list[tuple[str, str, str]]:
    lo, hi = "lower", "higher"
    names = [
        ("graphs.build_s", "s", lo), ("graphs.jobs", "count", lo),
        ("graphs.edge_cut", "count", lo),
        ("crystal_index.build_s", "s", lo), ("crystal_index.jobs", "count", lo),
        ("crystal_index.MB", "MB", lo),
        ("sme.split_s", "s", lo), ("sme.split_jobs", "count", lo),
        ("sme.enumerate_s", "s", lo), ("sme.enumerate_jobs", "count", lo),
        ("sme.c1_candidates", "count", hi), ("sme.rest_candidates", "count", lo),
        ("sme.embeddings", "count", hi), ("sme.share", "ratio", hi),
        ("regions.s", "s", lo), ("regions.jobs", "count", lo),
        ("regions.groups", "count", lo), ("regions.max_group_size", "count", hi),
        ("rmeef.s", "s", lo), ("rmeef.self_s", "s", lo), ("rmeef.jobs", "count", lo),
        ("rmeef.tasks", "count", lo), ("rmeef.executor_s", "s", lo),
        ("rmeef.idle_s", "s", lo), ("rmeef.shuffle_read_MB", "MB", lo),
        ("rmeef.shuffle_write_MB", "MB", lo), ("rmeef.rounds", "count", lo),
        ("rmeef.peak_ec_rows", "count", lo), ("rmeef.embeddings", "count", lo),
        ("rmeef.peak_group_trie_MB", "MB", lo), ("rmeef.fetchV_MB", "MB", lo),
        ("rmeef.verifyE_MB", "MB", lo),
        ("emtrie.s", "s", lo), ("emtrie.jobs", "count", lo), ("emtrie.el_MB", "MB", lo),
        ("emtrie.et_MB", "MB", lo),
        ("engine.self_s", "s", lo), ("engine.jobs", "count", lo),
        ("engine.embeddings", "count", hi),
    ]
    for b in BASELINE_LAYERS:
        names += [(f"{b}.s", "s", lo), (f"{b}.jobs", "count", lo),
                  (f"{b}.shuffle_write_MB", "MB", lo), (f"{b}.comm_MB", "MB", lo)]
    names += [("spark.jobs", "count", lo), ("spark.tasks", "count", lo),
              ("spark.executor_s", "s", lo), ("driver.jvm_peak_rss_MB", "MB", lo),
              ("trace.overhead_s", "s", lo)]
    return names
