"""Monotone segmentation of an ordered graph into nested communities.

The reduction: walking the order left to right, each vertex past the
source prefix contributes one weighted point, whose weight is the
number of pair slots back to all earlier vertices and whose value is
the mean weight of those slots.  Cutting the order into k segments and
scoring each segment's slot weights around their mean is then a
weighted least-squares segmentation of that point sequence, up to a
constant (the within-group variances).  Pooling adjacent violators
first makes the decreasing-mean constraint free, and a DP on the pooled
blocks picks the optimal k cuts: weighted 1-D k-means on sorted
values, whose optimal predecessor is monotone, so each DP row is filled
by divide and conquer in O(N log N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import Graph
from .ordering import VertexOrder


class InfeasibleKError(ValueError):
    """Requested more segments than there are pooled blocks.

    max_feasible is the pooled block count, the largest k the DP
    answers.  It is not an exact maximum: cutting inside a pooled block
    can still give strictly decreasing segment centroids, so a larger
    k can be feasible (e.g. 3 segments of 12 points pooled into 2
    blocks).  The message keeps the words "max feasible k".
    """

    def __init__(self, k: int, max_feasible: int):
        super().__init__(
            f"k exceeds available monotone blocks: k={k}, max feasible k={max_feasible}")
        self.k = k
        self.max_feasible = max_feasible


class DensityMonotonicityError(RuntimeError):
    """Segment centroids or community densities failed to decrease strictly.

    With a larger source the slots inside the source are excluded from
    the optimization and can drag a community's density out of line.
    With any source, float rounding can leave two pooled blocks whose
    recomputed segment centroids or densities tie.
    """


@dataclass(frozen=True)
class CommunitySequence:
    """k nested communities over an order: V_j = first breakpoints[j] vertices."""
    order: VertexOrder
    breakpoints: list[int]
    segment_centroids: list[float]
    segment_scores: list[float]
    community_densities: list[float]
    total_score: float

    @property
    def k(self) -> int:
        return len(self.breakpoints) - 1


def group_arrays(g: Graph, order: VertexOrder
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One weighted point per vertex after the source prefix, as arrays.

    Returns (a, x, internal, source_w); the arrays hold one entry per
    order position past the source.  For the vertex at (1-based)
    position i > |S|: a = i - 1, the pair slots back to earlier
    vertices; x = their total edge weight / (i - 1); internal = the sum
    over those slots of (slot weight - x) squared, missing edges
    counting as zero-weight slots.  source_w is the total weight of the
    edges inside the source prefix.  Raises ValueError if the source
    prefix is empty.
    """
    if order.source_size < 1:
        raise ValueError("order must carry a non-empty source prefix")
    n = g.num_vertices
    s = order.source_size
    # each live edge belongs to the group of its later endpoint
    later, ws, source_w = _live_slots(g, order)
    a = np.arange(s, n, dtype=np.int64)
    _, x, internal = _slot_stats(later - s, ws, a)
    return a, x, internal, source_w


def _slot_stats(group: np.ndarray, w: np.ndarray, slots: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total weight, mean slot weight, squared deviation of the slot
    weights around that mean) of each group j, which has slots[j] pair
    slots and the edges i with group[i] == j, of weight w[i]; the slots
    without an edge count as zero-weight slots."""
    total = np.bincount(group, weights=w, minlength=len(slots))
    mean = total / slots
    # nonnegative-term SSE: actual slots around the mean, then zero slots
    dev = np.bincount(group, weights=(w - mean[group]) ** 2, minlength=len(slots))
    sse = dev + (slots - np.bincount(group, minlength=len(slots))) * mean * mean
    return total, mean, sse


def _live_slots(g: Graph, order: VertexOrder) -> tuple[np.ndarray, np.ndarray, float]:
    """The live edges, those not inside the source prefix: the order
    position of each one's later endpoint and its weight; and the total
    weight of the edges inside the source prefix."""
    pos = order.positions()
    us, vs, ws = g.edge_arrays()
    later = np.maximum(pos[us], pos[vs])
    live = later >= order.source_size
    return later[live], ws[live], float(ws[~live].sum())


def pool_violators(weights: np.ndarray, values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool adjacent violators of a strictly-decreasing-means fit.

    weights (positive) and values, of one length, are the points in
    sequence order.
    Returns the blocks tiling them as arrays (end, weight, mean, sse):
    block t spans points [end[t-1], end[t]), the first from 0, and
    carries its total weight, weighted mean and the weighted squared
    deviation of its points around that mean.  Reported means are
    strictly decreasing (neighbors whose reported means are equal are
    merged, even when their sums differ by rounding).  Among all
    non-increasing fits, the block means minimize the weighted sum of
    squared deviations; total weight and total weight*mean are
    conserved (exactly so when the inputs are exactly representable,
    to rounding otherwise).  Linear time.

    The points' sums and means are taken in numpy and the merges run in
    one Python loop; `oracle.reference_pool_violators` is the plain
    loop, whose output this matches bit for bit.
    """
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if weights.shape != values.shape:
        raise ValueError(f"{weights.size} weights but {values.size} values")
    if not (weights > 0).all():  # NaN fails this test too
        i = int(np.argmin(weights > 0))  # the first point that fails it
        raise ValueError(f"point {i}: weight must be positive, got {weights[i].item()}")
    # each point's sum and mean, as the loop would compute them: the same
    # IEEE operations, with no warning where Python floats raise none
    with np.errstate(over="ignore", invalid="ignore"):
        sums = weights * values
        means = sums / weights
    # the block stack, one (weight, sum, sse, mean, end) tuple per block
    # above a sentinel whose NaN mean nothing merges into; the newest
    # block is held in (w, s, e, m) until it stops merging, and top is
    # the mean of the block below it
    stack: list[tuple[float, float, float, float, int]] = [(0.0, 0.0, 0.0, np.nan, 0)]
    top = np.nan
    try:
        for i, (w, s, m) in enumerate(zip(weights.tolist(), sums.tolist(), means.tolist()), 1):
            e = 0.0
            while top <= m:
                # previous mean <= current mean: merge.  m is the mean the
                # block reports, so no two reported means tie.
                w1, s1, e1, _, _ = stack.pop()
                e = e1 + e + (w1 * w / (w1 + w)) * (top - m) ** 2
                w, s = w1 + w, s1 + s
                m = s / w
                top = stack[-1][3]
            stack.append((w, s, e, m, i))
            top = m
    except OverflowError:  # float ** 2 raises rather than give inf
        raise ValueError("pooling overflows: a squared gap between merged means "
                         "exceeds the float range") from None
    weight, _, sse, mean, end = np.array(stack[1:], dtype=np.float64).reshape(-1, 5).T.copy()
    return end.astype(np.int64), weight, mean, sse


_Prefix = tuple[np.ndarray, np.ndarray, np.ndarray]


def _centred_prefix_sums(weights: np.ndarray, means: np.ndarray) -> _Prefix:
    """Prefix sums of w, w*c and w*c^2, with c the block means less their
    weighted mean.

    The span SSE does not change under a shift of the means; centring
    keeps sq - sx^2/w from cancelling when the means spread far less
    than their level (PPR-derived weights around 1e-5).
    """
    A = np.asarray(weights, dtype=np.float64)
    M = np.asarray(means, dtype=np.float64)
    C = M - (A * M).sum() / A.sum() if len(A) else M
    zero = np.zeros(1)
    return (np.concatenate([zero, np.cumsum(A)]),
            np.concatenate([zero, np.cumsum(A * C)]),
            np.concatenate([zero, np.cumsum(A * C * C)]))


def _span_cost(prefix: _Prefix, i: np.ndarray, j) -> np.ndarray:
    """SSE of blocks[i:j] around their weighted centroid, elementwise."""
    pa, pac, pac2 = prefix
    w = pa[j] - pa[i]
    sx = pac[j] - pac[i]
    sq = pac2[j] - pac2[i]
    return np.maximum(sq - sx * sx / w, 0.0)


def _dp_row(prefix: _Prefix, prev: np.ndarray, ell: int, edge: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Row ell of the DP from row ell-1, for tables laid end to end.

    Table t owns entries [edge[t], edge[t+1]) of prev and the prefix
    sums, ends 0..n_t, and needs n_t >= ell.  For every end j in
    [ell, n_t], best[j] = min over i in [ell-1, j-1] of prev[i] +
    cost(i, j), and back[j] its smallest minimizing i, within the table.
    The means strictly decrease, so the cost meets the quadrangle
    inequality and back[j] is nondecreasing in j: divide and conquer
    settles the midpoint of every open interval of ends at once,
    searching only the window [back(left end), back(right end)], so a
    row takes O(log N) passes of O(N) vectorized work.  A table's
    windows and first minima are its own shifted by edge[t], over the
    same floats, so its row is bit-identical to the one it gets alone.
    """
    best = np.full(edge[-1], np.inf)
    base = np.repeat(edge[:-1], np.diff(edge))
    back = base.copy()
    # open intervals of ends [lo, hi], predecessor windows [wlo, whi]
    lo, hi, wlo, whi = edge[:-1] + ell, edge[1:] - 1, edge[:-1] + ell - 1, edge[1:] - 2
    while lo.size:
        mid = (lo + hi) // 2
        lens = np.minimum(whi, mid - 1) - wlo + 1
        starts = np.cumsum(lens) - lens
        i = np.arange(lens.sum()) + np.repeat(wlo - starts, lens)
        cand = prev[i] + _span_cost(prefix, i, np.repeat(mid, lens))
        low = np.minimum.reduceat(cand, starts)
        # first minimum of each window: the smallest predecessor wins ties
        hits = np.flatnonzero(cand == np.repeat(low, lens))
        arg = i[hits[np.searchsorted(hits, starts)]]
        best[mid] = low
        back[mid] = arg
        left, right = lo < mid, mid < hi
        lo, hi, wlo, whi = (np.concatenate([lo[left], mid[right] + 1]),
                            np.concatenate([mid[left] - 1, hi[right]]),
                            np.concatenate([wlo[left], arg[right]]),
                            np.concatenate([arg[left], whi[right]]))
    return best, back - base


class SegmentTable:
    """Rows of the segmentation DP over pooled blocks, grown on demand.

    Cutting N blocks of strictly decreasing means into k contiguous
    segments, the DP minimizes the summed weighted squared deviation of
    block means around each segment's weighted centroid.  Row ell holds,
    for every end j, the optimal cost of cutting the first j blocks into
    ell segments and the start of the last one; a row takes O(N log N).
    Rows do not depend on the k asked for, so a table grown to K answers
    every k <= K.  `grow_tables` builds them, alone or with other tables.
    """

    def __init__(self, weights: np.ndarray, means: np.ndarray):
        self.n = len(weights)
        self._prefix = _centred_prefix_sums(weights, means)
        row0 = np.full(self.n + 1, np.inf)
        row0[0] = 0.0
        self._best = [row0]
        self._back = [np.zeros(self.n + 1, dtype=np.int64)]

    def solve(self, k: int) -> tuple[list[int], float]:
        """Cuts (0 and N included) and cost of the optimal k-segmentation;
        cost ties go to the smallest predecessor at every cell."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > self.n:
            raise InfeasibleKError(k, self.n)
        grow_tables([self], k)
        cuts = [self.n]
        for ell in range(k, 0, -1):
            cuts.append(int(self._back[ell][cuts[-1]]))
        cuts.reverse()
        return cuts, float(self._best[k][self.n])


def grow_tables(tables: Sequence[SegmentTable], k: int) -> None:
    """Grow each table to min(k, N) rows, one `_dp_row` call per row for
    all the tables that lack it; tables already that tall are untouched.
    A table listed more than once is grown once."""
    tables = list(dict.fromkeys(tables))  # by identity: tables define no ==
    for ell in range(1, min(k, max((t.n for t in tables), default=0)) + 1):
        live = [t for t in tables if len(t._best) == ell <= t.n]
        if live:
            prefix = tuple(np.concatenate(p) for p in zip(*(t._prefix for t in live)))
            edge = np.cumsum([0] + [t.n + 1 for t in live])
            prev = np.concatenate([t._best[-1] for t in live])
            best, back = _dp_row(prefix, prev, ell, edge)
            for t, a, b in zip(live, edge, edge[1:]):
                t._best.append(best[a:b])
                t._back.append(back[a:b])


class Segmenter:
    """One order's group reduction and pooling, cut at any k on demand.

    The pooled blocks are the arrays `end`, `weight`, `mean` and `sse`
    of `pool_violators`; one DP table over them, `table`, grows to the
    largest k asked and answers the smaller ones from its rows.
    """

    def __init__(self, g: Graph, order: VertexOrder):
        if g.num_vertices - order.source_size < 1:
            raise ValueError("source covers every vertex; nothing to segment")
        a, x, internal, self._source_w = group_arrays(g, order)
        self.order = order
        self.end, self.weight, self.mean, self.sse = pool_violators(a, x)
        self._internal_cum = np.concatenate([[0.0], np.cumsum(internal)])
        self.table = SegmentTable(self.weight, self.mean)

    def discover(self, k: int) -> CommunitySequence:
        """The optimal k-sequence, as `discover(g, order, k)` returns it."""
        return self.sequence(self.table.solve(k)[0])

    def sequence(self, cuts: Sequence[int]) -> CommunitySequence:
        """The community sequence of block cuts, scored and checked.

        Raises DensityMonotonicityError if the segment centroids or
        community densities fail to decrease strictly.
        """
        s = self.order.source_size
        block_w, block_m, point_end = self.weight, self.mean, self.end
        mass = block_w * block_m

        breakpoints = [s] + [s + int(point_end[t - 1]) for t in cuts[1:]]
        centroids: list[float] = []
        seg_scores: list[float] = []
        densities: list[float] = []
        cum_w = self._source_w
        for b0, b1, t in zip(cuts, cuts[1:], breakpoints[1:]):
            tot = float(mass[b0:b1].sum())
            mu = tot / float(block_w[b0:b1].sum())
            pooled = float(self.sse[b0:b1].sum()
                           + (block_w[b0:b1] * (block_m[b0:b1] - mu) ** 2).sum())
            p0 = int(point_end[b0 - 1]) if b0 > 0 else 0
            p1 = int(point_end[b1 - 1])
            seg_scores.append(pooled + float(self._internal_cum[p1]
                                             - self._internal_cum[p0]))
            centroids.append(mu)
            cum_w += tot
            densities.append(cum_w / (t * (t - 1) // 2))

        for what, unit, vals in (("segment centroids", "segment", centroids),
                                 ("community densities", "community", densities)):
            for j in range(1, len(vals)):
                if not vals[j] < vals[j - 1]:
                    raise DensityMonotonicityError(
                        f"{what} not strictly decreasing at {unit} {j + 1}: "
                        f"{vals[j - 1]} then {vals[j]}")

        total = 0.0
        for score in seg_scores:  # left to right; sum() compensates since 3.12
            total += score
        return CommunitySequence(order=self.order, breakpoints=breakpoints,
                                 segment_centroids=centroids,
                                 segment_scores=seg_scores,
                                 community_densities=densities,
                                 total_score=total)


def discover(g: Graph, order: VertexOrder, k: int) -> CommunitySequence:
    """Optimal k nested communities of strictly decreasing density.

    Pipeline: group reduction, violator pooling, k-segmentation DP, as
    `Segmenter(g, order).discover(k)`.  total_score is the full
    objective: the DP cost plus the pooled within-block SSE plus the
    within-group variances, identical to scoring the resulting
    breakpoints directly from the graph.

    Raises InfeasibleKError when k exceeds the pooled block count, the
    largest k the DP answers (not an exact maximum: a k-segmentation of
    the unpooled points with strictly decreasing centroids can exist
    for a larger k), and DensityMonotonicityError if the segment
    centroids or community densities fail to decrease strictly (a
    source of 2+ vertices, or a float tie between pooled blocks).
    """
    return Segmenter(g, order).discover(k)


def score_sequence(g: Graph, order: VertexOrder,
                   breakpoints: Sequence[int]) -> tuple[float, list[float], list[float]]:
    """Score arbitrary breakpoints directly from the graph.

    For each segment j, the slot set is every pair inside the first
    breakpoints[j] vertices that is not inside the first
    breakpoints[j-1]; the segment score is the squared deviation of
    those slot weights (missing edges are zero) around their mean.
    Returns (total score, per-segment means, per-community densities).
    No monotonicity is required of the input, so baseline sequences can
    be scored too.
    """
    s = order.source_size
    n = g.num_vertices
    bps = list(breakpoints)
    if len(bps) < 2 or bps[0] != s or bps[-1] != n:
        raise ValueError(
            f"breakpoints must run from the source size {s} to {n}, got {bps}")
    if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
        raise ValueError(f"breakpoints must be strictly ascending, got {bps}")
    if s < 1:
        raise ValueError("order must carry a non-empty source prefix")

    later, ws, source_w = _live_slots(g, order)
    seg = np.searchsorted(np.asarray(bps[1:], dtype=np.int64), later, side="right")
    pairs = np.array([b * (b - 1) // 2 for b in bps], dtype=np.float64)
    sumw, mu, seg_score = _slot_stats(seg, ws, pairs[1:] - pairs[:-1])

    cum_w = source_w + np.cumsum(sumw)
    densities = cum_w / pairs[1:]
    return float(seg_score.sum()), [float(v) for v in mu], [float(v) for v in densities]
