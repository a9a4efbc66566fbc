"""Vertex orders: min-weighted-degree peeling and baseline orders."""

from __future__ import annotations

import heapq
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
        if sorted(self.sequence) != list(range(n)):
            raise ValueError("sequence is not a permutation of 0..n-1")
        if not (0 <= self.source_size <= n):
            raise ValueError("source_size out of range")

    def positions(self) -> list[int]:
        """positions()[v] = index of vertex v in the sequence."""
        pos = [0] * len(self.sequence)
        for i, v in enumerate(self.sequence):
            pos[v] = i
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

    Binary heap of (weighted degree, id) entries with lazy deletion:
    entry[v] is live vertex v's current entry (None once v is removed,
    and for the source), and a popped entry that is not its vertex's
    current one is stale.  After each removal the heap holds at most
    8 * remaining + 1024 entries: past that it is rebuilt from the
    current entries alone, which takes at least 7 * remaining + 1024
    pushes since the previous rebuild, so the peel stays
    O((n + m) log n) amortised.  Stale entries are never taken, so the
    order does not depend on when the heap is rebuilt.
    """
    src = sorted(S)
    # memoryviews read the CSR arrays as Python ints and floats without
    # holding a list of all 2m of them
    ptr, nbrs, wts = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    entry: list[tuple[float, int] | None] = [
        (sum(wts[ptr[v]:ptr[v + 1]]), v) for v in range(g.num_vertices)]
    for v in src:
        entry[v] = None
    heap = list(filter(None, entry))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop

    removed: list[int] = []
    remaining = len(heap)
    while remaining:
        e = pop(heap)
        x = e[1]
        if entry[x] is not e:
            continue  # stale entry
        entry[x] = None
        removed.append(x)
        remaining -= 1
        a, b = ptr[x], ptr[x + 1]
        for y, w in zip(nbrs[a:b], wts[a:b]):
            e = entry[y]
            if e is not None:
                # e[1], not y: the entries share one int per vertex
                e = entry[y] = (e[0] - w, e[1])
                push(heap, e)
        # 8, not 2: with integer weights stale entries are seldom popped,
        # and rebuilding at 2 * remaining made that peel ~20% slower
        if len(heap) > 8 * remaining + 1024:
            heap = list(filter(None, entry))
            heapq.heapify(heap)

    removed.reverse()
    return VertexOrder(sequence=src + removed, source_size=len(src))


def densest_prefix(g: Graph, order: VertexOrder) -> tuple[frozenset[int], float]:
    """Best prefix of the order under the average-degree objective.

    Scans all prefixes {v_1..v_i}, i >= 1, and returns the first one
    maximizing induced edge weight / vertex count, with that value.
    """
    pos = order.positions()
    ptr, nbrs, wts = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    cum_weight = 0.0
    best_i = 1
    best_density = 0.0
    first = True
    for i, v in enumerate(order.sequence):
        a, b = ptr[v], ptr[v + 1]
        for y, w in zip(nbrs[a:b], wts[a:b]):
            if pos[y] < i:
                cum_weight += w
        density = cum_weight / (i + 1)
        if first or density > best_density:
            best_density = density
            best_i = i + 1
            first = False
    return frozenset(order.sequence[:best_i]), best_density


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
