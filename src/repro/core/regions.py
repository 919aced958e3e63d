"""Region groups (Section 6, Algorithm 3).

Candidates of dp0.piv on each machine are split into groups processed
independently, bounding peak memory. Groups are grown greedily by
*proximity* — the fraction of a candidate's neighbors already adjacent
to the group (eq. 5) — so candidates that will share fetched foreign
vertices and verification edges land together.

The memory test ``φ(rg) < Φ`` is modeled by a per-group candidate cap:
the engine estimates a candidate's cost as its embedding-list cost —
SM-E embeddings per C1 candidate (at least 1) × n query vertices × 8 B —
and divides Φ by it. The paper's estimator is the average
embedding-*trie* cost of the local embeddings; the list cost stands in
for it. A cap at or above a machine's candidate count never stops a
group from growing, so every such cap gives that machine the same
groups.

Each machine groups its own candidates over its local adjacency, before
any communication happens: R-Meef's per-machine task calls
:func:`greedy_region_groups` with the seed ``m``.
"""
from __future__ import annotations

import random
from typing import Iterable

import numpy as np


def greedy_region_groups(
    adj: dict[int, set[int]],
    candidates: Iterable[int],
    max_group_size: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Algorithm 3 run to exhaustion: returns the groups as sorted vertex
    arrays, in group-id order.

    Incremental proximity: ``num[w]`` counts w's neighbors inside the
    group's neighborhood N(rg); adding a member only touches the
    2-hop fringe, so the whole grouping is O(Σ deg)."""
    rng = random.Random(seed)
    groups: list[np.ndarray] = []
    remaining_set = {int(v) for v in candidates}
    while remaining_set:
        start = rng.choice(sorted(remaining_set))
        members = [start]
        remaining_set.discard(start)
        nbhd: set[int] = set()
        num: dict[int, int] = {}

        def absorb(u: int) -> None:
            for x in adj.get(u, ()):
                if x in nbhd:
                    continue
                nbhd.add(x)
                for w in adj.get(x, ()):
                    if w in remaining_set:
                        num[w] = num.get(w, 0) + 1

        absorb(start)
        while remaining_set and len(members) < max_group_size:
            # argmax proximity = num[w]/deg(w); vertices with no overlap
            # only if nothing overlaps (then pick any, per Algorithm 3's
            # outer loop restart — we keep growing to bound group count)
            best, best_p = None, -1.0
            for w, c in num.items():
                if w not in remaining_set:
                    continue
                p = c / max(1, len(adj.get(w, ())))
                if p > best_p or (p == best_p and (best is None or w < best)):
                    best, best_p = w, p
            if best is None:
                break  # no candidate touches the region: start a new group
            members.append(best)
            remaining_set.discard(best)
            absorb(best)
        groups.append(np.array(sorted(members), dtype=np.int64))
    return groups
