"""Embedding-trie tests: Definition 11 invariants, Example 6, removal
cascade, and equality between the in-memory trie and the numpy
prefix-count the machines' tasks use (so Table 3/4 numbers are exact,
not estimated)."""
import numpy as np
import pytest

from repro.core.emtrie import EmbeddingTrie, list_bytes, trie_nodes
from repro.core.metrics import TRIE_NODE_BYTES


def test_example6_insert():
    # paper Example 6: ECs (v0,v1,v2), (v0,v1,v9), (v0,v9,v11)
    t = EmbeddingTrie()
    t.insert((0, 1, 2))
    t.insert((0, 1, 9))
    t.insert((0, 9, 11))
    # tree: root v0; children v1 (children v2, v9) and v9 (child v11)
    assert t.node_count == 6
    assert len(t) == 3


def test_example6_remove_middle():
    t = EmbeddingTrie()
    t.insert((0, 1, 2))
    leaf = t.insert((0, 1, 9))
    t.insert((0, 9, 11))
    t.remove(leaf)  # Figure 5(b): only (v0,v1,v2) and (v0,v9,v11) remain
    assert sorted(t.results()) == [[0, 1, 2], [0, 9, 11]]
    assert t.node_count == 5


def test_remove_cascades_to_root():
    t = EmbeddingTrie()
    leaf = t.insert((7, 8, 9))
    t.remove(leaf)
    assert t.node_count == 0
    assert list(t.results()) == []


def test_remove_shared_prefix_stays():
    t = EmbeddingTrie()
    a = t.insert((1, 2, 3))
    t.insert((1, 2, 4))
    t.remove(a)
    assert t.node_count == 3  # 1 -> 2 -> 4


def test_retrieve_leaf_to_root():
    t = EmbeddingTrie()
    leaf = t.insert((5, 6, 7, 8))
    assert EmbeddingTrie.retrieve(leaf) == [5, 6, 7, 8]


def test_insert_shares_prefixes():
    t = EmbeddingTrie()
    for x in range(10):
        t.insert((0, 1, x))
    assert t.node_count == 12  # root + level1 + 10 leaves
    assert len(t) == 10


def test_insert_duplicate_is_noop_on_count():
    t = EmbeddingTrie()
    t.insert((0, 1))
    t.insert((0, 1))
    assert t.node_count == 2


def test_remove_nonleaf_raises():
    t = EmbeddingTrie()
    t.insert((0, 1, 2))
    root = t._roots[0]
    with pytest.raises(ValueError):
        t.remove(root)


def test_empty_insert_raises():
    with pytest.raises(ValueError):
        EmbeddingTrie().insert(())


def test_nbytes_model():
    t = EmbeddingTrie()
    t.insert((0, 1, 2))
    assert t.nbytes == 3 * TRIE_NODE_BYTES


def test_list_bytes():
    assert list_bytes(10, 4) == 10 * 4 * 8


def test_compression_beats_list_on_shared_prefixes():
    t = EmbeddingTrie()
    rows = [(0, 1, x) for x in range(100)]
    for r in rows:
        t.insert(r)
    assert t.nbytes < list_bytes(len(rows), 3)


# ---------------- prefix count == in-memory trie ----------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_count_matches_trie(seed):
    import random

    rng = random.Random(seed)
    rows = [
        (rng.randrange(5), rng.randrange(6), rng.randrange(7), rng.randrange(8))
        for _ in range(150)
    ]
    t = EmbeddingTrie()
    for r in rows:
        t.insert(r)
    cols = list(np.array(rows).T)  # unsorted, with duplicates
    assert trie_nodes(cols) == t.node_count
    assert trie_nodes(cols) * TRIE_NODE_BYTES == t.nbytes
    assert trie_nodes(cols[:2]) == len({r[:1] for r in rows}) + len({r[:2] for r in rows})
    assert trie_nodes([c[:0] for c in cols]) == 0
