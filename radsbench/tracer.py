"""Outside-in tracing of the program's layers.

The tracer replaces each layer's public function with a wrapper at the
name its caller looks it up under (``repro.core.engine.sme_enumerate``,
not only ``repro.core.sme.sme_enumerate``). A wrapper opens a span: it
tags the span's Spark jobs with a job group of its own, materializes
returned DataFrames before the span closes (so lazy work is charged to
the layer that built it) and records start, end and parent. After the
traced phase, Spark's status store gives each span's jobs, tasks,
executor time, shuffle bytes and stage times. A patch target that no
longer exists is reported as absent and skipped.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field, fields

#: (module, attribute, layer, span name) — the layers' public functions,
#: each at the name its caller looks it up under
TARGETS = (
    ("repro.graphs.datasets", "grid_graph", "graphs", "generate"),
    ("repro.graphs.datasets", "watts_strogatz", "graphs", "generate"),
    ("repro.graphs.datasets", "barabasi_albert", "graphs", "generate"),
    ("repro.graphs.partition", "bfs_partition", "graphs", "bfs_partition"),
    ("repro.graphs.datasets", "bfs_partition", "graphs", "bfs_partition"),
    ("repro.graphs.datasets", "build_context", "graphs", "build_context"),
    ("repro.baselines.crystal", "build_clique_index", "crystal_index", "build_clique_index"),
    ("repro.core.engine", "split_candidates", "sme", "split_candidates"),
    ("repro.core.engine", "sme_enumerate", "sme", "sme_enumerate"),
    ("repro.core.engine", "assign_region_groups_spark", "regions", "assign_region_groups_spark"),
    ("repro.core.engine", "run_rmeef", "rmeef", "run_rmeef"),
    ("repro.core.engine", "trie_bytes_spark", "emtrie", "trie_bytes_spark"),
    ("repro.core.rmeef", "trie_bytes_spark", "emtrie", "trie_bytes_spark"),
    ("repro.core.engine", "run_rads", "engine", "run_rads"),
    ("repro.baselines.psgl", "run_psgl", "psgl", "run_psgl"),
    ("repro.baselines.twintwig", "run_twintwig", "twintwig", "run_twintwig"),
    ("repro.baselines.seed", "run_seed", "seed", "run_seed"),
    ("repro.baselines.crystal", "run_crystal", "crystal", "run_crystal"),
)


@dataclass
class Span:
    id: int
    layer: str
    name: str
    parent: int | None
    start: float  # epoch seconds
    end: float = 0.0
    group: str = ""
    # filled from Spark's status store by Tracer.collect
    jobs: int = 0
    tasks: int = 0
    executor_s: float = 0.0
    shuffle_read_MB: float = 0.0
    shuffle_write_MB: float = 0.0
    stage_intervals: list = field(default_factory=list)  # [(start, end)] epoch s
    self_s: float = 0.0
    # what the call returned (materialized), kept for counts; not serialized
    result: object = field(default=None, repr=False)
    args: tuple = field(default=(), repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _materialize(x):
    """Run the lazy work behind DataFrames in ``x`` now, returning an
    equivalent eagerly checkpointed value."""
    from pyspark.sql import DataFrame

    if isinstance(x, DataFrame):
        return x.localCheckpoint()
    if isinstance(x, tuple):
        return tuple(_materialize(v) for v in x)
    return x


class Tracer:
    """Spans kept in memory, one Spark job group per span."""

    def __init__(self, sc, run_id: str):
        self.sc = sc
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans -----------------------------------------------------

    def open(self, layer: str, name: str) -> Span:
        sp = Span(len(self.spans), layer, name,
                  self._stack[-1].id if self._stack else None, time.time())
        sp.group = f"{self.run_id}:{sp.id}:{layer}.{name}"
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.setJobGroup(sp.group, f"{layer}.{name}")
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.time()
        self._stack.pop()
        if self._stack:
            self.sc.setJobGroup(self._stack[-1].group, self._stack[-1].name)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)

    def call(self, layer: str, span_name: str, fn, /, *args, **kwargs):
        sp = self.open(layer, span_name)
        try:
            out = _materialize(fn(*args, **kwargs))
            sp.result, sp.args = out, args
            return out
        finally:
            self.close(sp)

    # -- patching --------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for mod_name, attr, layer, name in targets:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue

            setattr(mod, attr, self._wrap(orig, layer, name))
            self._patched.append((mod, attr, orig))

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- status store ----------------------------------------------

    def collect(self) -> None:
        """Fill each span's own Spark figures (jobs in its job group)
        and its self time."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jvm = self.sc._jvm
        stages = jsc.statusStore().stageList(
            jvm.java.util.ArrayList(), False, False,
            self.sc._gateway.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
        )
        wanted: dict[int, Span] = {}
        for sp in self.spans:
            jobs = tracker.getJobIdsForGroup(sp.group)
            sp.jobs = len(jobs)
            for j in jobs:
                info = tracker.getJobInfo(j)
                for s in (list(info.stageIds) if info else []):
                    wanted[int(s)] = sp
        for i in range(stages.size()):
            st = stages.apply(i)
            sp = wanted.get(int(st.stageId()))
            if sp is None or st.status().toString() != "COMPLETE":
                continue
            sp.tasks += int(st.numCompleteTasks())
            sp.executor_s += int(st.executorRunTime()) / 1e3
            sp.shuffle_read_MB += int(st.shuffleReadBytes()) / 1e6
            sp.shuffle_write_MB += int(st.shuffleWriteBytes()) / 1e6
            if st.submissionTime().isDefined() and st.completionTime().isDefined():
                sp.stage_intervals.append((
                    st.submissionTime().get().getTime() / 1e3,
                    st.completionTime().get().getTime() / 1e3,
                ))
        for sp in self.spans:
            sp.self_s = sp.seconds - sum(c.seconds for c in self.children(sp))

    def children(self, sp: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == sp.id]

    def subtree(self, sp: Span) -> list[Span]:
        out, todo = [], [sp]
        while todo:
            x = todo.pop()
            out.append(x)
            todo += self.children(x)
        return out

    def idle_s(self, sp: Span) -> float:
        """Wall time of ``sp`` during which none of its (or its
        descendants') stages ran."""
        iv = sorted(
            (max(a, sp.start), min(b, sp.end))
            for x in self.subtree(sp)
            for a, b in x.stage_intervals
        )
        busy, cur_a, cur_b = 0.0, None, None
        for a, b in iv:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    busy += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            busy += cur_b - cur_a
        return max(0.0, sp.seconds - busy)

    def write(self, path: str, extra: dict) -> None:
        keep = [f.name for f in fields(Span) if f.name not in ("result", "args")]
        rows = [
            {**{k: getattr(sp, k) for k in keep}, "seconds": sp.seconds}
            for sp in self.spans
        ]
        with open(path, "w") as f:
            json.dump({**extra, "absent_targets": self.absent, "spans": rows}, f, indent=1)
