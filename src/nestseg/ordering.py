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


def _degree_bounds(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, lo, hi): each vertex's weight sum s = ``g.vertex_sums()`` and
    floats lo <= d <= hi around its correctly rounded sum d, the value
    ``math.fsum`` returns over its row.  lo and hi are s itself, the
    same array, when s is exact: integer weights whose float total is
    below 2**53 have an exact total below 2**53 too (rounding a
    nonnegative sum is monotone), so every partial sum is an integer
    below 2**53, exact in any order.  So are dyadic weights.  Let t be
    their float total, t < 2**e with e the exponent ``math.frexp``
    gives, and k = 53 - e.  When k >= 0 and every weight times 2**k is
    an integer, those integers have the float total t * 2**k < 2**53:
    scaling up by 2**k is exact (no product exceeds t * 2**k) and
    commutes with each rounded addition.  So, as above, their partial
    sums are integers below 2**53, and each partial sum of the weights
    is such an integer times 2**-k and a multiple of 2**-1074, as every
    weight is: a float, so every addition was exact.  The scale only
    goes up, as scaling down could round a weight to an integer it is
    not.

    Otherwise, with u = 2**-53, a row of m >= 1 weights gets
    e = fl(s * m * 2**-52), lo = fl(s - e) and hi = fl(s + e); the row
    of no weight has s = 0 = d and e = 0.  Proof, for exact sum x:

    1. s adds the weights left to right from 0.0.  The first addition
       is exact, and each later one returns the exact sum times
       (1 + delta), |delta| <= u: no sum overflows (each stays below
       2**463, see graph_core.MAX_WEIGHT), and a float sum below
       2**-1021 is exact, as every multiple of 2**-1074 below it is a
       float.  For m nonnegative terms this gives
       |s - x| <= gamma x, gamma = (m - 1) u / (1 - (m - 1) u)
       (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
       ed. 2002, section 4.2).  m < 2**32, as n**2 < 2**63, so
       gamma < 2**-21 and
       |s - x| <= gamma s / (1 - gamma) <= 1.000001 (m - 1) u s.
    2. If s < 2**-1021, every partial sum lies below it, every addition
       was exact and s = x: lo <= s <= hi as e >= 0.  Otherwise
       c = m * 2**-52 is exact and c s >= 2**-1073, so the product's
       error, at most u c s plus 2**-1075 should it be subnormal, is
       below c s (u + 1/4), and e > 1.49 m u s.
    3. hi >= (s + e)(1 - u) > s + (1.49 (1 - u) m - 1) u s
       >= s + 1.000001 (m - 1) u s >= x.  If e >= s, lo <= 0 <= x;
       else lo <= (s - e)(1 + u) < s - (1.49 m - 1) u s
       <= s - 1.000001 (m - 1) u s <= x.
    4. lo <= x <= hi, and lo and hi are floats: rounding to nearest is
       monotone, so lo <= d = fl(x) <= hi as well.
    """
    s = g.vertex_sums()
    w = g.ws
    k = 53 - math.frexp(w.sum())[1]
    x = np.ldexp(w, k)  # x == floor(x) is x % 1 == 0 at a tenth of the cost
    if k >= 0 and (x == np.floor(x)).all():
        return s, s, s
    e = s * (np.diff(g.indptr) * 2.0**-52)
    return s, s - e, s + e


def _row_fsums(g: Graph, rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each of the rows' weights, in the order of rows."""
    starts, wts = g.indptr[rows].tolist(), memoryview(g.weights)
    return np.array([math.fsum(wts[a:b]) for a, b in zip(starts, g.indptr[rows + 1].tolist())],
                    dtype=np.float64)


def degree_ranking(g: Graph) -> np.ndarray:
    """Every id by descending correctly rounded weight sum (``math.fsum``
    over its row), ties by ascending id.

    The ids are sorted by descending ``g.vertex_sums()`` and cut into
    runs with ``_degree_bounds``: a run starts at position p when
    every lower bound before p lies above every upper bound from p on
    (upper bounds need not fall along the sort, as they grow with the
    row length).  Each rounded sum of a run then lies below each of the
    runs before it, so only the rows of a run of two or more take
    ``math.fsum``, and such a run is sorted by (-fsum, id).  Exact sums
    (integer weights) need no run: their stable sort is the ranking.
    """
    s, lo, hi = _degree_bounds(g)
    if lo is hi:
        return np.argsort(-s, kind="stable")
    # rows of equal s share a run, as lo <= s <= hi, and each such run is
    # sorted by id below: the sort need not be stable, and quicksort is
    # several times faster
    order = np.argsort(-s)
    lo, hi = lo[order], hi[order]
    cut = np.minimum.accumulate(lo)[:-1] > np.maximum.accumulate(hi[::-1])[::-1][1:]
    run = np.concatenate(([0], np.cumsum(cut)))
    shared = np.bincount(run)[run] > 1
    if not shared.any():
        return order
    key = np.zeros(len(order))
    key[shared] = -_row_fsums(g, order[shared])
    return order[np.lexsort((order, key, run))]


def _ranked_order(g: Graph, S: VertexSet, ranking: np.ndarray) -> VertexOrder:
    """The sorted source, then the other ids in the order of ranking, a
    permutation of every id."""
    src = source_ids(g, S)
    rest = np.ones(g.num_vertices, dtype=bool)
    rest[src] = False
    return VertexOrder(sequence=src + ranking[rest[ranking]].tolist(), source_size=len(src))


def degree_order(g: Graph, S: VertexSet) -> VertexOrder:
    """Source first, then descending weighted degree, ties by id: the
    correctly rounded weight sums of ``degree_ranking``."""
    return _ranked_order(g, S, degree_ranking(g))


def pagerank_order(g: Graph, S: VertexSet, pr) -> VertexOrder:
    """Source first, then descending walk score, ties by id."""
    return _ranked_order(g, S, np.argsort(-pr.p, kind="stable"))
