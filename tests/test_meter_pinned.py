"""RADS's metered numbers for q1-q8, pinned exactly.

The values were recorded while the fetch cache, the candidate split and
the region-group table were still Spark DataFrames, so they guard every
later change to how RADS computes its bookkeeping: the cost model's
values (comm per kind, peak intermediate bytes, peak group-trie bytes,
EL/ET, rounds, region-group count) and the embedding counts must not
move. DBLP runs with a region-group target Φ of 4000 B, which gives
several groups per machine; RoadNet runs Table 3's call
(``measure_compression``), where SM-E takes most start candidates.

The budget failures pin the numbers metered up to the round whose
region-group trie overruns the budget (Φ = budget // 8, as the tables
run RADS). They were recorded while the rounds still ran as Spark jobs
driven from the driver, so they guard the per-round records the
machines' tasks return now.
"""
import pytest

from repro.core.engine import run_rads
from repro.query.queries import QUERIES

RUNS = {
    "dblp": ("gc_dblp", {"group_mem_bytes": 4000}),
    "road": ("gc_road", {"measure_compression": True}),
}

PINNED = {
    "dblp.q1": {"c1_candidates": 19, "comm.fetchV": 7632, "comm.verifyE": 289, "n_embeddings": 691, "n_region_groups": 6, "peak_group_trie_bytes": 12020, "peak_intermediate_bytes": 27360, "rounds": 2, "sme_embeddings": 73},
    "dblp.q2": {"c1_candidates": 64, "comm.verifyE": 3876, "n_embeddings": 4009, "n_region_groups": 25, "peak_group_trie_bytes": 5820, "peak_intermediate_bytes": 17664, "rounds": 1, "sme_embeddings": 1463},
    "dblp.q3": {"c1_candidates": 19, "comm.fetchV": 20568, "comm.verifyE": 153, "n_embeddings": 1378, "n_region_groups": 14, "peak_group_trie_bytes": 20640, "peak_intermediate_bytes": 63072, "rounds": 3, "sme_embeddings": 139},
    "dblp.q4": {"c1_candidates": 19, "comm.fetchV": 4392, "comm.verifyE": 7599, "n_embeddings": 3501, "n_region_groups": 32, "peak_group_trie_bytes": 8900, "peak_intermediate_bytes": 22480, "rounds": 2, "sme_embeddings": 319},
    "dblp.q5": {"c1_candidates": 19, "comm.fetchV": 9408, "comm.verifyE": 9673, "n_embeddings": 11283, "n_region_groups": 141, "peak_group_trie_bytes": 5160, "peak_intermediate_bytes": 17664, "rounds": 3, "sme_embeddings": 979},
    "dblp.q6": {"c1_candidates": 3, "comm.fetchV": 68200, "comm.verifyE": 782, "n_embeddings": 2792, "n_region_groups": 35, "peak_group_trie_bytes": 34540, "peak_intermediate_bytes": 135800, "rounds": 4, "sme_embeddings": 43},
    "dblp.q7": {"c1_candidates": 19, "comm.fetchV": 5536, "comm.verifyE": 6069, "n_embeddings": 3148, "n_region_groups": 32, "peak_group_trie_bytes": 15260, "peak_intermediate_bytes": 37440, "rounds": 2, "sme_embeddings": 268},
    "dblp.q8": {"c1_candidates": 19, "comm.fetchV": 11280, "n_embeddings": 3148, "n_region_groups": 32, "peak_group_trie_bytes": 21880, "peak_intermediate_bytes": 65472, "rounds": 2, "sme_embeddings": 291},
    "road.q1": {"c1_candidates": 105, "comm.fetchV": 2176, "comm.verifyE": 136, "el_bytes": 8976, "et_bytes": 14080, "n_embeddings": 122, "peak_group_trie_bytes": 4220, "peak_intermediate_bytes": 8976, "rounds": 2, "sme_embeddings": 55},
    "road.q2": {"c1_candidates": 122, "comm.verifyE": 459, "el_bytes": 1664, "et_bytes": 2540, "n_embeddings": 0, "peak_group_trie_bytes": 740, "peak_intermediate_bytes": 1664, "rounds": 1, "sme_embeddings": 0},
    "road.q3": {"c1_candidates": 105, "comm.fetchV": 4488, "comm.verifyE": 34, "el_bytes": 28288, "et_bytes": 31720, "n_embeddings": 0, "peak_group_trie_bytes": 9760, "peak_intermediate_bytes": 28288, "rounds": 3, "sme_embeddings": 0},
    "road.q4": {"c1_candidates": 85, "comm.verifyE": 476, "el_bytes": 1760, "et_bytes": 2540, "n_embeddings": 0, "peak_group_trie_bytes": 1200, "peak_intermediate_bytes": 1760, "rounds": 2, "sme_embeddings": 0},
    "road.q5": {"c1_candidates": 85, "comm.verifyE": 459, "el_bytes": 1696, "et_bytes": 2440, "n_embeddings": 0, "peak_group_trie_bytes": 1200, "peak_intermediate_bytes": 1696, "rounds": 3, "sme_embeddings": 0},
    "road.q6": {"c1_candidates": 70, "comm.fetchV": 6784, "comm.verifyE": 34, "el_bytes": 111080, "et_bytes": 97640, "n_embeddings": 196, "peak_group_trie_bytes": 30760, "peak_intermediate_bytes": 111080, "rounds": 4, "sme_embeddings": 45},
    "road.q7": {"c1_candidates": 85, "comm.fetchV": 1424, "comm.verifyE": 306, "el_bytes": 25472, "et_bytes": 29300, "n_embeddings": 182, "peak_group_trie_bytes": 8680, "peak_intermediate_bytes": 25472, "rounds": 2, "sme_embeddings": 79},
    "road.q8": {"c1_candidates": 85, "comm.fetchV": 2408, "el_bytes": 51200, "et_bytes": 57320, "n_embeddings": 182, "peak_group_trie_bytes": 17400, "peak_intermediate_bytes": 51200, "rounds": 2, "sme_embeddings": 79},
}

#: graph.query.budget -> (failing round, metered numbers at the failure)
FAILING = {
    "dblp.q3.2000": (1, {"c1_candidates": 19, "comm.fetchV": 11936, "n_embeddings": 0, "n_region_groups": 141, "peak_group_trie_bytes": 2540, "peak_intermediate_bytes": 6720, "rounds": 3, "sme_embeddings": 139}),
    "dblp.q6.8000": (2, {"c1_candidates": 3, "comm.fetchV": 46048, "n_embeddings": 0, "n_region_groups": 157, "peak_group_trie_bytes": 10740, "peak_intermediate_bytes": 30760, "rounds": 4, "sme_embeddings": 43}),
    "dblp.q6.30000": (2, {"c1_candidates": 3, "comm.fetchV": 29824, "n_embeddings": 0, "n_region_groups": 35, "peak_group_trie_bytes": 34540, "peak_intermediate_bytes": 135800, "rounds": 4, "sme_embeddings": 43}),
    "lj.q5.2000": (0, {"c1_candidates": 0, "n_embeddings": 0, "n_region_groups": 31, "peak_group_trie_bytes": 157540, "peak_intermediate_bytes": 243104, "rounds": 3, "sme_embeddings": 0}),
}
FIXTURES = {"dblp": "gc_dblp", "lj": "gc_lj"}

EXTRAS = (
    "peak_group_trie_bytes", "el_bytes", "et_bytes", "n_region_groups",
    "sme_embeddings", "c1_candidates",
)


def _record(met) -> dict:
    rec = {f"comm.{k}": v for k, v in met.comm_breakdown.items()}
    rec["peak_intermediate_bytes"] = met.peak_intermediate_bytes
    rec["rounds"] = met.rounds
    rec["n_embeddings"] = met.n_embeddings
    rec.update({k: met.extras[k] for k in EXTRAS if k in met.extras})
    return rec


@pytest.mark.parametrize("key", sorted(PINNED))
def test_rads_meter_pinned(request, key):
    graph, qn = key.split(".")
    fixture, kw = RUNS[graph]
    _, met = run_rads(request.getfixturevalue(fixture), QUERIES[qn], qn, **kw)
    assert not met.failed, met.fail_reason
    assert _record(met) == PINNED[key]


@pytest.mark.parametrize("key", sorted(FAILING))
def test_rads_budget_failure_pinned(request, key):
    graph, qn, budget = key.split(".")
    budget = int(budget)
    gc = request.getfixturevalue(FIXTURES[graph])
    df, met = run_rads(gc, QUERIES[qn], qn, bytes_budget=budget, group_mem_bytes=budget // 8)
    fails_at, pinned = FAILING[key]
    assert met.failed and df is None
    assert met.fail_reason.startswith(f"round {fails_at}: ")
    assert _record(met) == pinned
