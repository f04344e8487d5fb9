"""Report-and-remove store for orthogonal segment crossing queries.

A store holds rows ``(fixed, lo, hi)`` of ``graph.mids``, each owned by its
rectangle's id, and is used in rounds.  ``pop_crossing`` takes a segment of
the opposite axis, returns the owners of every live stored segment crossing
it (closed intervals on both sides), sorted by (fixed, owner), and removes
them, so each is reported at most once a round.  ``restore`` ends the round
in constant time: every segment is live again.  ``diameter_fast`` builds one
store per axis over its far rows' segments with ``reset`` and ends each of
its rounds with ``restore``.

It is a segment tree over the endpoint coordinates.  ``reset`` finds all
canonical cover nodes in one vectorised loop over the levels and sorts the
(node, fixed, owner) entries into CSR node groups.  A query bisects the group
of each node on its fixed coordinate's root-to-leaf path.  Segments popped
this round are dead, and next-alive pointers set this round skip their
entries, so a round passes each dead entry once.  Both carry the round they
were set in, so a new round makes them stale without touching them.  Pops
run in Python on lists made once from the arrays, as a round makes few of
them, each cheaper than one numpy call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np


class CrossingStore:
    """Segment tree over the interval axis whose nodes hold their segments sorted by (fixed, owner).

    Segments are numbered by rank in (fixed, owner) order: ``_owner[r]`` and
    ``_dead[r]``, the round in which r was last popped, belong to rank r.
    Node v's entries are ``_start[v] : _start[v + 1]`` of ``_fixed`` and
    ``_rank``.  ``_next[e]`` counts only if ``_passed[e]``, the round in
    which it was set, is the current one; then every entry from e up to
    ``_next[e]`` has a rank popped this round.  ``entries`` and ``rounds``
    count the stored (node, segment) pairs, none for an empty store, and
    the rounds ended.
    """

    @classmethod
    def reset(cls, mids, owners) -> "CrossingStore":
        """Fresh store over ``mids`` (rows ``(fixed, lo, hi)``), row k owned by ``owners[k]``; the owners increase."""
        fixed, lo, hi = np.asarray(mids, dtype=np.int64).reshape(-1, 3).T
        if (lo >= hi).any():
            k = int(np.argmax(lo >= hi))
            raise ValueError(f"degenerate segment: lo={lo[k]} >= hi={hi[k]}")
        coords = np.unique(np.concatenate([lo, hi]))
        size = max(2 * len(coords) - 1, 0)  # leaf 2p is coordinate p, leaf 2p - 1 the gap before it
        order = np.argsort(fixed, kind="stable")
        # The canonical cover of [lo, hi], level by level, as in an iterative segment tree.
        left = 2 * np.searchsorted(coords, lo[order]) + size
        right = 2 * np.searchsorted(coords, hi[order]) + size + 1
        rank = np.arange(len(order))
        nodes, ranks = [rank[:0]], [rank[:0]]
        while len(rank):
            odd = (left & 1).astype(bool)
            nodes.append(left[odd])
            ranks.append(rank[odd])
            left += odd
            odd = (right & 1).astype(bool)
            right -= odd
            nodes.append(right[odd])
            ranks.append(rank[odd])
            left >>= 1
            right >>= 1
            more = left < right
            left, right, rank = left[more], right[more], rank[more]
        node, rank = np.concatenate(nodes), np.concatenate(ranks)
        entries = np.lexsort((rank, node))
        node, rank = node[entries], rank[entries]
        store = cls()
        store._coords = coords.tolist()
        store._size = size
        store._start = np.searchsorted(node, np.arange(2 * size + 1)).tolist()
        store._fixed = fixed[order[rank]].tolist()
        store._rank = rank.tolist()
        store._owner = np.asarray(owners)[order].tolist()
        store._dead = [-1] * len(order)
        store._next = [0] * len(rank)
        store._passed = [-1] * len(rank)
        store.entries, store.rounds = len(rank), 0
        return store

    def restore(self) -> None:
        """End the round: every segment popped in it is live again."""
        self.rounds += 1

    def pop_crossing(self, fixed: int, lo: int, hi: int) -> list[int]:
        """Return, sorted by (fixed, owner), and remove the owners of every live segment crossing ``(fixed, lo, hi)``."""
        coords = self._coords
        if not coords or fixed < coords[0] or fixed > coords[-1]:
            return []
        pos = bisect_left(coords, fixed)
        node = 2 * pos - (coords[pos] != fixed) + self._size
        start, keys, ranks, nxt, passed, dead = self._start, self._fixed, self._rank, self._next, self._passed, self._dead
        now = self.rounds
        found = []
        while node:
            a, b = start[node], start[node + 1]
            e = bisect_left(keys, lo, a, b)
            stop = bisect_right(keys, hi, e, b)
            if e < stop:
                walked = []
                while e < stop:
                    walked.append(e)
                    if passed[e] == now:
                        e = nxt[e]
                    else:
                        r = ranks[e]
                        if dead[r] != now:
                            dead[r] = now
                            found.append(r)
                        e += 1
                for p in walked:  # every entry from p up to e was popped this round
                    nxt[p] = e
                    passed[p] = now
            node >>= 1
        found.sort()
        owner = self._owner
        return [owner[r] for r in found]
