"""Vertex orders: min-weighted-degree peeling and baseline orders."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, VertexSet, source_ids


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


MAX_INT64 = (1 << 63) - 1


def ordered_bits(values: np.ndarray) -> np.ndarray:
    """int64 keys of float64 values that order as the values do.

    A float's IEEE bit pattern, read as an int64, already orders the
    nonnegative floats; a negative pattern is mapped to
    ``-1 - (bits & (2**63 - 1))``, which puts the negatives below zero
    in reverse order of their magnitude.  The keys of non-NaN values
    then order as the values, except that -0.0 (key -1) comes before
    +0.0 (key 0).
    """
    bits = values.view(np.int64)
    return np.where(bits < 0, -1 - (bits & MAX_INT64), bits)


def sort_vertices(g: Graph, S: VertexSet) -> VertexOrder:
    """Order vertices by repeatedly peeling the lightest one.

    Starting from the full vertex set, repeatedly remove the non-source
    vertex with the smallest total weight of edges to the vertices still
    present (ties: lowest id), and prepend it to the order.  The source
    set, in ascending id order, forms the head of the result; the first
    vertex peeled ends up last.  A source id outside 0..n-1 raises
    ValueError, as in every function here that takes a source set.  The
    degrees start as ``g.vertex_sums()``, added left to right in
    edge-list order, and a removal subtracts each of its edge weights
    from the other end once, so the order depends neither on the Python
    version nor on the order within a row.

    A binary heap holds only the vertices at or below a cut tau.
    Invariant: every remaining vertex whose degree is at most tau has a
    current entry in the heap, that is one whose key encodes the
    vertex's degree; other entries are stale and skipped when popped.
    Degrees only fall, so a decrement pushes a new entry exactly when
    it leaves the degree at or below tau.  When the heap runs out of
    current entries, tau is raised to the max(64, remaining // 16)-th
    smallest remaining degree and every remaining vertex at or below it,
    ties included, is heapified.  Each refill thus hands out at least
    1/16 of the remaining vertices, or 64 once fewer than 1024 remain,
    so there are O(log n) refills of O(n) each, at most 16 of them
    below 1024, and each decrement pushes at most once:
    O((n + m) log n) in all.

    Every entry's key is at most tau, and every remaining vertex at or
    below tau has its current entry, so the least current entry is the
    global (degree, id) minimum whatever tau is: the order does not
    depend on tau.

    A heap entry is one int, ``(ordered_bits(d) << b) | v`` with
    ``b = n.bit_length()``, so that every id fits below bit b; Python
    compares such ints faster than (d, v) tuples.  Their order is the
    (d, v) order because ordered_bits orders floats, negatives included
    (live degrees can fall below zero by rounding), with one exception,
    -0.0 before +0.0, and no degree is ever -0.0: a degree starts as
    +0.0 plus nonnegative weights, which is never -0.0, and then changes
    only by ``d - w``, which is -0.0 only when d is -0.0 and w is +0.0.
    The degrees live in one float64 array, read and written through a
    memoryview and their bits read through an int64 view of the same
    buffer; an entry is stale when ``key >> b`` is not its vertex's
    current ordered bits.

    Removed and source vertices hold NaN as their degree, and a removal
    skips such neighbors instead of decrementing them.  No other degree
    is NaN: live degrees stay finite, since every weight is at most
    2**400 and a row sums fewer than 2**63 of them.  So no pushed key
    is NaN's and a removed vertex's entries are all stale; np.partition
    sorts NaN last.  The later of an edge's two visits always finds its
    other end removed, so at least half of all neighbor visits are
    skipped; the order is unchanged.
    """
    src = source_ids(g, S)
    n = g.num_vertices
    # memoryviews read the CSR arrays as Python ints and floats without
    # holding a list of all 2m of them
    ptr, nbrs, wts = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    degs = g.vertex_sums()
    degs[src] = np.nan
    deg = memoryview(degs)
    bits = deg.cast("B").cast("q")
    shift = n.bit_length()
    ids = (1 << shift) - 1
    mag = MAX_INT64
    nan = math.nan
    push = heapq.heappush
    pop = heapq.heappop

    heap: list[int] = []
    tau = -math.inf
    removed: list[int] = []
    remaining = n - len(src)
    while remaining:
        if not heap:
            rank = min(max(64, remaining // 16), remaining) - 1
            tau = float(np.partition(degs, rank)[rank])
            vs = np.flatnonzero(degs <= tau)
            heap = [(o << shift) | v
                    for o, v in zip(ordered_bits(degs[vs]).tolist(), vs.tolist())]
            heapq.heapify(heap)
        key = pop(heap)
        x = key & ids
        o = bits[x]  # mapped below as ordered_bits maps it
        if key >> shift != (o if o >= 0 else -1 - (o & mag)):
            continue  # stale entry
        deg[x] = nan
        removed.append(x)
        remaining -= 1
        for i in range(ptr[x], ptr[x + 1]):
            y = nbrs[i]
            d = deg[y]
            if d != d:
                continue  # removed or source
            d -= wts[i]
            deg[y] = d
            if d <= tau:
                o = bits[y]
                push(heap, ((o if o >= 0 else -1 - (o & mag)) << shift) | y)

    removed.reverse()
    return VertexOrder(sequence=src + removed, source_size=len(src))


def hops_levels(g: Graph, S: VertexSet) -> np.ndarray:
    """Each vertex's BFS distance from the source set (int64).

    The sources are at level 0; unreachable vertices, if any, share the
    level after the last reachable one, so the levels 0..max are all
    nonempty.
    """
    if not S:
        raise ValueError("source set must not be empty")
    level = np.full(g.num_vertices, -1, dtype=np.int64)
    frontier = np.array(source_ids(g, S), dtype=np.int64)
    depth = 0
    while len(frontier):
        level[frontier] = depth
        depth += 1
        # the frontier's CSR rows, concatenated
        starts, ends = g.indptr[frontier], g.indptr[frontier + 1]
        nbrs = g.indices[np.repeat(ends - np.cumsum(ends - starts), ends - starts)
                         + np.arange(int((ends - starts).sum()))]
        # sorted and duplicate-free, without np.unique, which imports numpy.ma
        frontier = np.sort(nbrs[level[nbrs] < 0])
        frontier = frontier[np.diff(frontier, prepend=-1) != 0]
    level[level < 0] = depth
    return level


def _ranked_order(g: Graph, S: VertexSet, score: np.ndarray) -> VertexOrder:
    src = source_ids(g, S)
    rest = np.delete(np.arange(g.num_vertices), np.array(src, dtype=np.int64))
    rest = rest[np.argsort(-score[rest], kind="stable")]
    return VertexOrder(sequence=src + rest.tolist(), source_size=len(src))


def degree_order(g: Graph, S: VertexSet) -> VertexOrder:
    """Source first, then descending weighted degree, ties by id."""
    return _ranked_order(g, S, g.weighted_degrees())


def pagerank_order(g: Graph, S: VertexSet, pr) -> VertexOrder:
    """Source first, then descending walk score, ties by id."""
    return _ranked_order(g, S, pr.p)
