"""Source-personalized random-walk scores and edge re-weighting schemes."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, VertexSet, source_ids


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PageRankVector:
    """Stationary distribution of the restarting walk.

    p[v] is the probability mass on vertex v; residual is the final L1
    change between iterates; iterations is how many steps were taken.
    """
    p: np.ndarray
    restart: float
    residual: float
    iterations: int


class WeightingScheme(enum.Enum):
    """How to turn walk scores into edge weights.

    norm:     p(v)/deg(v) + p(u)/deg(u), deg = unweighted edge count
    sum:      p(v) + p(u)
    min:      min(p(v), p(u))
    original: keep the input weights untouched
    """
    NORM = "norm"
    SUM = "sum"
    MIN = "min"
    ORIGINAL = "original"


# RowSumPlan adds the rows of at most ROW_SUM_WIDTH entries by column
ROW_SUM_WIDTH = 64


class RowSumPlan:
    """Adds up each row of a CSR layout as ``s = 0.0; for x in row: s +=
    x`` does on any Python version (``sum()`` of floats is compensated
    since 3.12), in O(ROW_SUM_WIDTH) numpy calls.  ``arrange`` lays
    per-slot values out as ``sums`` reads them: with the rows sorted
    longest first, column j holds entry j of each row of at most
    ROW_SUM_WIDTH entries that is longer than j; then come the entries
    of every longer row, row after row.  ``sums`` adds each column with
    one elementwise add and all the longer rows with one np.bincount,
    which adds in input order from 0.0."""

    def __init__(self, indptr: np.ndarray):
        lens = np.diff(indptr)
        rows = np.argsort(-lens, kind="stable")
        self.starts, lens = indptr[:-1][rows], lens[rows]
        self.rank = np.empty_like(rows)  # rank[v] = row v's place in rows
        self.rank[rows] = np.arange(len(rows))
        # longer[j] = the number of rows longer than j; the first `long`
        # rows are longer than ROW_SUM_WIDTH
        longer = np.searchsorted(-lens, -np.arange(ROW_SUM_WIDTH + 1), side="left").tolist()
        self.long = longer.pop()
        counts = [c - self.long for c in longer if c > self.long]
        self.columns = list(zip(np.cumsum([0] + counts).tolist(), counts))
        self.tail = sum(counts)
        lens = lens[:self.long]
        self.segments = np.repeat(np.arange(self.long), lens)
        self.tail_slots = (np.repeat(self.starts[:self.long] - np.cumsum(lens) + lens, lens)
                           + np.arange(len(self.segments)))

    def arrange(self, values: np.ndarray) -> np.ndarray:
        out = np.empty(self.tail + len(self.segments), dtype=values.dtype)
        for j, (a, k) in enumerate(self.columns):
            out[a:a + k] = values[self.starts[self.long:self.long + k] + j]
        out[self.tail:] = values[self.tail_slots]
        return out

    def sums(self, buf: np.ndarray) -> np.ndarray:
        """The row sums of an arranged buffer, in row order; buf is only read."""
        acc = np.zeros(len(self.rank))
        for a, k in self.columns:
            acc[self.long:self.long + k] += buf[a:a + k]
        acc[:self.long] = np.bincount(self.segments, buf[self.tail:])
        return acc.take(self.rank, mode="wrap")


def personalized_pagerank(g: Graph, S: VertexSet, restart: float = 0.1,
                          use_edge_weights: bool = False, tol: float = 1e-10,
                          max_iter: int = 10000) -> PageRankVector:
    """Stationary distribution of a walk that restarts into S.

    At every step the walker jumps, with probability ``restart``, to a
    vertex of S chosen uniformly; otherwise it moves to a neighbor of
    the current vertex, chosen proportionally to edge weight when
    ``use_edge_weights`` is set and uniformly otherwise.  A vertex with
    no usable outgoing edge sends the walker back into S.

    Power iteration from the restart distribution until the L1 change
    between iterates drops to ``tol``.

    Raises
    ------
    ValueError if S is empty or holds an id outside 0..n-1, restart is
    outside (0, 1), tol is not a number >= 0 or max_iter is below 1.
    ConvergenceError if ``max_iter`` iterations do not reach ``tol``.
    """
    if not S:
        raise ValueError("source set must not be empty")
    src = source_ids(g, S)
    if not (0.0 < restart < 1.0):
        raise ValueError(f"restart must be in (0, 1), got {restart}")

    # each row of the walk operator is added as scipy's csr_matvec adds
    # it: columns ascending, as every Graph lists them, left to right
    # from 0.0
    plan = RowSumPlan(g.indptr)
    strength = g.vertex_sums() if use_edge_weights else np.diff(g.indptr).astype(float)
    dangling = strength == 0.0
    with np.errstate(over="ignore"):  # a strength below about 5.6e-309
        inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, strength))
    cols = plan.arrange(g.indices)
    buf = np.empty(len(cols))
    # the entries are A[x, y] * inv[x], or inv[x] itself unweighted; in a
    # row x whose inv[x] overflowed, A[x, y] / strength[x]
    vals = None
    if use_edge_weights:
        w, over = plan.arrange(g.weights), np.isinf(inv[cols])
        vals = w * np.where(over, 0.0, inv[cols])
        vals[over] = w[over] / strength[cols[over]]

    def step(p: np.ndarray) -> np.ndarray:
        if vals is None:
            np.take(p * inv, cols, out=buf, mode="wrap")
        else:
            np.multiply(np.take(p, cols, out=buf, mode="wrap"), vals, out=buf)
        return plan.sums(buf)

    return _power_iteration(step, dangling, src, restart, tol, max_iter)


def _power_iteration(step, dangling: np.ndarray, src: list[int],
                     restart: float, tol: float, max_iter: int) -> PageRankVector:
    """Iterate the restarting walk from the restart distribution on src
    until the L1 change drops to tol; step(p) redistributes p along the
    edges into a new array."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    share = 1.0 / len(src)
    p = np.zeros(len(dangling))
    p[src] = share
    damp = 1.0 - restart
    for it in range(1, max_iter + 1):
        lost = float(p[dangling].sum())
        # no step sum is -0.0, so adding 0.0 restart mass outside src
        # would change no bit
        p_next = damp * step(p)
        p_next[src] += (restart + damp * lost) * share
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual <= tol:
            return PageRankVector(p=p, restart=restart, residual=residual,
                                  iterations=it)
        if np.isnan(residual):  # no later step converges
            break
    raise ConvergenceError(
        f"no convergence after {it} iterations (residual {residual:.3e})", residual)


def apply_weighting(g: Graph, pr: PageRankVector | None,
                    scheme: WeightingScheme) -> Graph:
    """Re-weight every edge of g from the walk scores; edge set unchanged.

    ``ORIGINAL`` returns g itself and needs no scores (pr may be None).
    Any other scheme returns ``g.with_weights(ws)``: the rows keep g's
    layout, which every graph takes from its u < v edge list, and only
    the weights are new.
    """
    if scheme is WeightingScheme.ORIGINAL:
        return g
    p = pr.p
    if len(p) != g.num_vertices:
        raise ValueError("score vector does not cover all vertices")
    us, vs, _ = g.edge_arrays()
    pu, pv = p[us], p[vs]
    if scheme is WeightingScheme.NORM:
        deg = np.diff(g.indptr).astype(np.float64)
        ws = pu / deg[us] + pv / deg[vs]
    elif scheme is WeightingScheme.SUM:
        ws = pu + pv
    else:  # WeightingScheme.MIN
        ws = np.minimum(pu, pv)
    return g.with_weights(ws)
