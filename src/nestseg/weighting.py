"""Source-personalized random-walk scores and edge re-weighting schemes."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph_core import Graph, VertexSet


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

    @classmethod
    def parse(cls, name: str) -> "WeightingScheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {name!r} (expected one of {valid})") from None


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
    ValueError if S is empty or restart is outside (0, 1).
    ConvergenceError if ``max_iter`` iterations do not reach ``tol``.
    """
    n = g.num_vertices
    if not S:
        raise ValueError("source set must not be empty")
    if any(v < 0 or v >= n for v in S):
        raise ValueError(f"source ids out of range 0..{n - 1}")
    if not (0.0 < restart < 1.0):
        raise ValueError(f"restart must be in (0, 1), got {restart}")

    # symmetric weight matrix; rows index the walker's current vertex.
    # copy=True: sort_indices works in place, and g's arrays are read-only
    data = g.weights if use_edge_weights else np.ones(len(g.indices))
    A = sp.csr_matrix((data, g.indices, g.indptr), shape=(n, n), copy=True)
    A.sort_indices()
    strength = np.asarray(A.sum(axis=1)).ravel()
    dangling = strength == 0.0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, strength))
    # step operator transposed, step_T[y, x] = A[x, y] / strength[x]: A is
    # symmetric with sorted rows, so row y of A lists the x of row y of
    # step_T in the order that A.T.tocsr() would
    step_T = sp.csr_matrix((A.data * inv[A.indices], A.indices, A.indptr),
                           shape=(n, n))
    return _power_iteration(step_T, dangling, sorted(S), restart, tol, max_iter)


def _power_iteration(step_T, dangling: np.ndarray, src: list[int],
                     restart: float, tol: float, max_iter: int) -> PageRankVector:
    """Iterate the restarting walk with operator step_T from the restart
    distribution on src until the L1 change drops to tol."""
    r_vec = np.zeros(len(dangling))
    r_vec[src] = 1.0 / len(src)
    p = r_vec.copy()
    damp = 1.0 - restart
    for it in range(1, max_iter + 1):
        lost = float(p[dangling].sum()) if dangling.any() else 0.0
        p_next = damp * (step_T @ p) + (restart + damp * lost) * r_vec
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual <= tol:
            return PageRankVector(p=p, restart=restart, residual=residual,
                                  iterations=it)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual)


def apply_weighting(g: Graph, pr: PageRankVector,
                    scheme: WeightingScheme) -> Graph:
    """Re-weight every edge of g from the walk scores; edge set unchanged.

    The result is built from g's u < v edge arrays, so its neighbor
    order follows that edge order rather than g's rows.
    """
    us, vs, ws = g.edge_arrays()
    if scheme is not WeightingScheme.ORIGINAL:
        p = pr.p
        if len(p) != g.num_vertices:
            raise ValueError("score vector does not cover all vertices")
        pu, pv = p[us], p[vs]
        if scheme is WeightingScheme.NORM:
            deg = np.diff(g.indptr).astype(np.float64)
            ws = pu / deg[us] + pv / deg[vs]
        elif scheme is WeightingScheme.SUM:
            ws = pu + pv
        elif scheme is WeightingScheme.MIN:
            ws = np.minimum(pu, pv)
        else:  # pragma: no cover
            raise ValueError(f"unhandled scheme {scheme}")
    return Graph(g.labels, us, vs, ws)
