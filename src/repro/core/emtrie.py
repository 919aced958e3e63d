"""Embedding trie (Section 5): compact storage of intermediate results.

Two views of the same structure:

* :class:`EmbeddingTrie` — the literal in-memory trie of Definition 11
  (per-machine, used by tests and by the SM-E cost estimator). Supports
  insert / remove-with-cascade / retrieval by leaf id, exactly as the
  paper's maintenance algorithms require.
* :func:`trie_nodes` — exact node count of the trie a machine *would*
  build for a set of result lists, in numpy: level-j nodes are the
  distinct j+1-prefixes of the lists in matching order (the trie merges
  equal prefixes). SM-E and R-Meef's per-machine tasks count their
  embeddings' and EC sets' tries with it, for the memory check and the
  Table 3/4 compression experiment.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.metrics import TRIE_NODE_BYTES, VERTEX_BYTES


@dataclass
class _Node:
    v: int
    parent: "_Node | None"
    child_count: int = 0
    children: dict[int, "_Node"] = field(default_factory=dict)


class EmbeddingTrie:
    """Definition 11: a forest keyed by the first matched data vertex."""

    def __init__(self) -> None:
        self._roots: dict[int, _Node] = {}
        self._node_count = 0

    # -- maintenance -------------------------------------------------

    def insert(self, result: Sequence[int]) -> _Node:
        """Insert a result list; returns its leaf node (the unique ID)."""
        if not result:
            raise ValueError("empty result")
        node = self._roots.get(result[0])
        if node is None:
            node = _Node(result[0], None)
            self._roots[result[0]] = node
            self._node_count += 1
        for v in result[1:]:
            nxt = node.children.get(v)
            if nxt is None:
                nxt = _Node(v, node)
                node.children[v] = nxt
                node.child_count += 1
                self._node_count += 1
            node = nxt
        return node

    def remove(self, leaf: _Node) -> None:
        """Remove a result by its leaf; cascade-delete emptied ancestors
        (the paper's Removal procedure)."""
        if leaf.children:
            raise ValueError("not a leaf")
        node = leaf
        while True:
            parent = node.parent
            if parent is None:
                if self._roots.get(node.v) is node:
                    del self._roots[node.v]
                    self._node_count -= 1
                break
            del parent.children[node.v]
            parent.child_count -= 1
            self._node_count -= 1
            if parent.child_count > 0:
                break
            node = parent

    # -- retrieval ---------------------------------------------------

    @staticmethod
    def retrieve(leaf: _Node) -> list[int]:
        """Leaf-to-root walk, reversed: the stored result list."""
        out = []
        node: _Node | None = leaf
        while node is not None:
            out.append(node.v)
            node = node.parent
        return out[::-1]

    def results(self) -> Iterator[list[int]]:
        """All stored result lists (leaf-to-root paths)."""

        def rec(node: _Node, path: list[int]):
            path.append(node.v)
            if not node.children:
                yield list(path)
            else:
                for ch in node.children.values():
                    yield from rec(ch, path)
            path.pop()

        for root in self._roots.values():
            yield from rec(root, [])

    # -- accounting --------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.results())

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def nbytes(self) -> int:
        """Trie memory under the paper's cost model (20 B per node)."""
        return self._node_count * TRIE_NODE_BYTES


def list_bytes(n_rows: int, n_cols: int) -> int:
    """Embedding-list (EL) memory: one vertex id per cell."""
    return n_rows * n_cols * VERTEX_BYTES


def trie_nodes(cols: Sequence[np.ndarray]) -> int:
    """Node count of the merged trie of the rows whose vertex columns,
    in matching order, are ``cols``: Σ_j distinct (cols[0..j]) prefixes."""
    if not len(cols) or not len(cols[0]):
        return 0
    order = np.lexsort(cols[::-1])
    new = np.zeros(len(order) - 1, bool)  # row k's prefix differs from row k-1's
    nodes = 0
    for c in cols:
        c = c[order]
        new |= c[1:] != c[:-1]
        nodes += 1 + int(np.count_nonzero(new))
    return nodes
