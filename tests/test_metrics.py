"""RunMetrics accounting unit tests."""
from repro.core.metrics import (
    TRIE_NODE_BYTES,
    VERIFY_PAIR_BYTES,
    VERTEX_BYTES,
    RunMetrics,
)


def test_constants():
    assert VERTEX_BYTES == 8
    assert TRIE_NODE_BYTES == 20
    assert VERIFY_PAIR_BYTES == 17


def test_add_comm_accumulates():
    m = RunMetrics("e", "q", "d")
    m.add_comm("fetchV", 100)
    m.add_comm("verifyE", 50)
    m.add_comm("fetchV", 10)
    assert m.comm_bytes == 160
    assert m.comm_breakdown == {"fetchV": 110, "verifyE": 50}


def test_see_intermediate_tracks_peak():
    m = RunMetrics("e", "q", "d")
    m.see_intermediate(100, 3)
    m.see_intermediate(50, 10)  # more bytes, fewer rows
    assert m.peak_intermediate_rows == 100
    assert m.peak_intermediate_bytes == 50 * 10 * 8


def test_row_shape():
    m = RunMetrics("rads", "q1", "dblp_tiny")
    m.n_embeddings = 5
    r = m.row()
    assert r["engine"] == "rads" and r["query"] == "q1"
    assert set(r) == {
        "engine", "query", "dataset", "embeddings", "time_s",
        "comm_MB", "peak_MB", "failed",
    }
