"""Vertex orders: min-weighted-degree peeling and baseline orders."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, VertexSet


@dataclass(frozen=True)
class VertexOrder:
    """A permutation of vertex ids whose first source_size entries are
    the source set (ascending id)."""
    sequence: list[int]
    source_size: int

    def __post_init__(self):
        n = len(self.sequence)
        seq = np.asarray(self.sequence, dtype=np.int64)
        # n ids in 0..n-1 with no empty count are each there exactly once
        if n and (seq.min() < 0 or seq.max() >= n
                  or not np.bincount(seq, minlength=n).all()):
            raise ValueError("sequence is not a permutation of 0..n-1")
        if not (0 <= self.source_size <= n):
            raise ValueError("source_size out of range")

    def positions(self) -> np.ndarray:
        """positions()[v] = index of vertex v in the sequence (int64)."""
        pos = np.empty(len(self.sequence), dtype=np.int64)
        pos[np.asarray(self.sequence, dtype=np.int64)] = np.arange(len(pos))
        return pos

    def source(self) -> frozenset[int]:
        return frozenset(self.sequence[:self.source_size])


def sort_vertices(g: Graph, S: VertexSet) -> VertexOrder:
    """Order vertices by repeatedly peeling the lightest one.

    Starting from the full vertex set, repeatedly remove the non-source
    vertex with the smallest total weight of edges to the vertices still
    present (ties: lowest id), and prepend it to the order.  The source
    set, in ascending id order, forms the head of the result; the first
    vertex peeled ends up last.

    A binary heap of (weighted degree, id) entries holds only the
    vertices at or below a cut tau.  Invariant: every remaining vertex
    whose degree is at most tau has a current entry in the heap, that
    is one whose key equals the vertex's degree; other entries are
    stale and skipped when popped.  Degrees only fall, so a decrement
    pushes a new entry exactly when it leaves the degree at or below
    tau.  When the heap runs out of current entries, tau is raised to
    the max(1024, remaining // 16)-th smallest remaining degree and
    every remaining vertex at or below it, ties included, is heapified.
    Each refill thus hands out at least 1/16 of the remaining vertices
    (or 1024), so there are O(log n) refills of O(n) each, and each
    decrement pushes at most once: O((n + m) log n) in all.

    Every entry's key is at most tau, and every remaining vertex at or
    below tau has its current entry, so the least current entry is the
    global (degree, id) minimum whatever tau is: the order does not
    depend on tau.

    Removed and source vertices hold NaN as their degree, and a removal
    skips such neighbors instead of decrementing them.  The later of an
    edge's two visits always finds its other end removed, so at least
    half of all neighbor visits are skipped; the order is unchanged.
    """
    src = sorted(S)
    # memoryviews read the CSR arrays as Python ints and floats without
    # holding a list of all 2m of them
    ptr, nbrs, wts = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    deg = [sum(wts[a:b]) for a, b in zip(ptr, ptr[1:])]
    # removed and source vertices hold the math.nan object, and no other
    # NaN is ever stored: live degrees stay finite, since every weight is
    # at most 2**400 and a row sums fewer than 2**63 of them, so a
    # decrement never makes one.  Hence `deg[y] is nan` tells a removed
    # neighbor, which is skipped; no key equals NaN, and np.partition
    # sorts NaN last
    nan = math.nan
    for v in src:
        deg[v] = nan
    push = heapq.heappush
    pop = heapq.heappop

    heap: list[tuple[float, int]] = []
    tau = -math.inf
    removed: list[int] = []
    remaining = g.num_vertices - len(src)
    while remaining:
        if not heap:
            degs = np.array(deg)
            rank = min(max(1024, remaining // 16), remaining) - 1
            tau = float(np.partition(degs, rank)[rank])
            heap = [(deg[v], v) for v in np.flatnonzero(degs <= tau).tolist()]
            heapq.heapify(heap)
        key, x = pop(heap)
        if key != deg[x]:
            continue  # stale entry
        deg[x] = nan
        removed.append(x)
        remaining -= 1
        a, b = ptr[x], ptr[x + 1]
        for y, w in zip(nbrs[a:b], wts[a:b]):
            d = deg[y]
            if d is nan:
                continue
            d -= w
            deg[y] = d
            if d <= tau:
                push(heap, (d, y))

    removed.reverse()
    return VertexOrder(sequence=src + removed, source_size=len(src))


def hops_levels(g: Graph, S: VertexSet) -> list[set[int]]:
    """BFS distance classes from the source set.

    Level 0 is S itself; unreachable vertices, if any, form one final
    level so the union of levels is always the whole vertex set.
    """
    if not S:
        raise ValueError("source set must not be empty")
    seen = np.zeros(g.num_vertices, dtype=bool)
    frontier = np.array(sorted(S), dtype=np.int64)
    seen[frontier] = True
    levels: list[set[int]] = [set(S)]
    while True:
        # the frontier's CSR rows, concatenated
        starts, ends = g.indptr[frontier], g.indptr[frontier + 1]
        nbrs = g.indices[np.repeat(ends - np.cumsum(ends - starts), ends - starts)
                         + np.arange(int((ends - starts).sum()))]
        frontier = np.unique(nbrs[~seen[nbrs]])
        if not len(frontier):
            break
        seen[frontier] = True
        levels.append(set(frontier.tolist()))
    if not seen.all():
        levels.append(set(np.flatnonzero(~seen).tolist()))
    return levels


def _ranked_order(g: Graph, S: VertexSet, score) -> VertexOrder:
    src = sorted(S)
    rest = [v for v in range(g.num_vertices) if v not in S]
    rest.sort(key=lambda v: (-score(v), v))
    return VertexOrder(sequence=src + rest, source_size=len(src))


def degree_order(g: Graph, S: VertexSet) -> VertexOrder:
    """Source first, then descending weighted degree, ties by id."""
    wdeg = g.weighted_degrees()
    return _ranked_order(g, S, lambda v: wdeg[v])


def pagerank_order(g: Graph, S: VertexSet, pr) -> VertexOrder:
    """Source first, then descending walk score, ties by id."""
    return _ranked_order(g, S, lambda v: float(pr.p[v]))
