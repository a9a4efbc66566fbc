"""Independent checker for `nestseg run` and `nestseg compare` JSON reports.

It recomputes what a report claims from the generated edges with its own
walk, re-weighting and scoring code and imports nothing from nestseg.
The walk is iterated to a tighter tolerance than the CLI's, so both sit
within rounding of the same fixed point; scores are compared to RTOL.
A run report's cuts must also be optimal: the checker pools the order's
points with its own violator pooling and finds the best k cuts with an
exhaustive O(N^2 k) DP over the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from gen import EdgeList

RESTART = 0.1       # the CLI's default restart probability
WALK_TOL = 1e-14    # L1 change that ends the power iteration
RTOL = 1e-6
OPT_RTOL = 1e-7     # how far above the checker's optimum a report's cost may be
DP_CHUNK = 128      # DP end positions scored per numpy step
SCHEMES = ("norm", "sum", "min")
ORDERS = ("peel", "degree", "pagerank")


class CheckError(Exception):
    """The report contradicts the input or itself."""


@dataclass(frozen=True)
class Graph:
    """The input over dense ids 0..n-1 (labels sorted by number)."""
    labels: list[str]
    us: np.ndarray
    vs: np.ndarray
    ws: np.ndarray
    first_seen: np.ndarray  # index of the first token naming each vertex

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def load(edges: EdgeList) -> Graph:
    tokens = np.stack([edges.lo, edges.hi], axis=1).ravel()
    numbers, first, ids = np.unique(tokens, return_index=True, return_inverse=True)
    ids = ids.reshape(-1, 2)
    ws = (np.ones(len(ids)) if edges.w is None
          else edges.w.astype(np.float64))
    return Graph(labels=[str(v) for v in numbers.tolist()],
                 us=ids[:, 0], vs=ids[:, 1], ws=ws, first_seen=first)


def default_source(g: Graph) -> int:
    """Heaviest weighted degree; ties go to the vertex named first."""
    wdeg = (np.bincount(g.us, weights=g.ws, minlength=g.n)
            + np.bincount(g.vs, weights=g.ws, minlength=g.n))
    heaviest = np.flatnonzero(wdeg == wdeg.max())
    return int(heaviest[np.argmin(g.first_seen[heaviest])])


def _adjacency(g: Graph) -> sp.csr_matrix:
    rows = np.concatenate([g.us, g.vs])
    cols = np.concatenate([g.vs, g.us])
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))


def walk_scores(g: Graph, source: int) -> np.ndarray:
    """Stationary distribution of the unweighted walk restarting at source."""
    deg = np.bincount(g.us, minlength=g.n) + np.bincount(g.vs, minlength=g.n)
    if (deg == 0).any():
        raise CheckError("generated graph has an isolated vertex")
    adj = _adjacency(g)
    restart = np.zeros(g.n)
    restart[source] = 1.0
    p = restart.copy()
    for _ in range(20000):
        nxt = (1.0 - RESTART) * (adj @ (p / deg)) + RESTART * restart
        change = float(np.abs(nxt - p).sum())
        p = nxt
        if change <= WALK_TOL:
            return p
    raise CheckError("checker walk did not converge")


def reweight(g: Graph, p: np.ndarray, scheme: str) -> np.ndarray:
    pu, pv = p[g.us], p[g.vs]
    if scheme == "sum":
        return pu + pv
    if scheme == "min":
        return np.minimum(pu, pv)
    if scheme == "norm":
        deg = (np.bincount(g.us, minlength=g.n)
               + np.bincount(g.vs, minlength=g.n)).astype(np.float64)
        return pu / deg[g.us] + pv / deg[g.vs]
    raise CheckError(f"unknown scheme {scheme!r}")


def score(g: Graph, ws: np.ndarray, shell: np.ndarray, sizes: list[int]):
    """Score a nested sequence given each vertex's shell.

    shell[v] = 0 for the source and j for the j-th added shell; sizes[j]
    counts its vertices.  An edge belongs to the later of its endpoints'
    shells.  Returns (total, per-shell scores, centroids, densities).
    """
    k = len(sizes) - 1
    tops = np.cumsum(sizes).astype(np.float64)
    pairs = tops * (tops - 1) / 2
    slots = np.diff(pairs)
    es = np.maximum(shell[g.us], shell[g.vs])
    source_w = float(ws[es == 0].sum())
    live = es > 0
    e, w = es[live] - 1, ws[live]
    sumw = np.bincount(e, weights=w, minlength=k)
    count = np.bincount(e, minlength=k)
    mu = sumw / slots
    dev = np.bincount(e, weights=(w - mu[e]) ** 2, minlength=k)
    scores = dev + (slots - count) * mu * mu
    densities = (source_w + np.cumsum(sumw)) / pairs[1:]
    return float(scores.sum()), scores, mu, densities


def points(g: Graph, ws: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted points of an order, one per vertex after the first.

    The vertex at position i >= 1 (rank[v] = position of v) has a = i
    slots back to earlier vertices, and x = its edge weight back / i.
    """
    later = np.maximum(rank[g.us], rank[g.vs])
    a = np.arange(1, g.n, dtype=np.float64)
    x = np.bincount(later, weights=ws, minlength=g.n)[1:] / a
    return a, x


def between_cost(a: np.ndarray, x: np.ndarray, cuts) -> float:
    """Sum of a * (x - segment centroid)^2 for points cut at cuts (0..len)."""
    seg = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    mu = np.bincount(seg, weights=a * x) / np.bincount(seg, weights=a)
    return float(np.sum(a * (x - mu[seg]) ** 2))


def pool(a: np.ndarray, x: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Pool adjacent points until block means strictly decrease.

    Returns each block's end (exclusive point index), weight and mean.
    """
    ends: list[int] = []
    wsum: list[float] = []
    xsum: list[float] = []
    for i, (w, v) in enumerate(zip(a.tolist(), x.tolist())):
        ends.append(i + 1)
        wsum.append(w)
        xsum.append(w * v)
        while len(ends) > 1 and xsum[-2] / wsum[-2] <= xsum[-1] / wsum[-1]:
            end, w2, s2 = ends.pop(), wsum.pop(), xsum.pop()
            ends[-1] = end
            wsum[-1] += w2
            xsum[-1] += s2
    weights = np.array(wsum)
    return ends, weights, np.array(xsum) / weights


def best_block_cuts(weights: np.ndarray, means: np.ndarray, k: int) -> list[int]:
    """k contiguous segments of the blocks with the least weighted SSE.

    Plain DP over every (segment count, end, start) triple.  End
    positions go in chunks of DP_CHUNK: a chunk's segment costs against
    every start are computed once and serve all k segment counts, since
    best[ell] at an end needs only best[ell - 1] at earlier ends.
    Returns the k+1 cuts in block indices, 0 and len(blocks) included.
    """
    n = len(weights)
    means = means - float(weights @ means) / float(weights.sum())
    pa = np.concatenate([[0.0], np.cumsum(weights)])
    pm = np.concatenate([[0.0], np.cumsum(weights * means)])
    pq = np.concatenate([[0.0], np.cumsum(weights * means * means)])
    best = np.full((k + 1, n + 1), np.inf)   # best[ell, j]: blocks[:j] in ell
    best[0, 0] = 0.0
    back = np.zeros((k + 1, n + 1), dtype=np.int64)
    for j0 in range(1, n + 1, DP_CHUNK):
        j = np.arange(j0, min(j0 + DP_CHUNK, n + 1))
        i = np.arange(j[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = pm[j, None] - pm[None, i]
            cost = pq[j, None] - pq[None, i] - s * s / (pa[j, None] - pa[None, i])
        cost = np.where(i[None, :] < j[:, None], np.maximum(cost, 0.0), np.inf)
        rows = np.arange(len(j))
        for ell in range(1, k + 1):
            cand = best[ell - 1, i][None, :] + cost
            t = np.argmin(cand, axis=1)
            best[ell, j] = cand[rows, t]
            back[ell, j] = t
    cuts = [n]
    for ell in range(k, 0, -1):
        cuts.append(int(back[ell, cuts[-1]]))
    return cuts[::-1]


def optimal_cost(a: np.ndarray, x: np.ndarray, k: int) -> float:
    """Least between_cost over k segments with strictly decreasing centroids."""
    ends, weights, means = pool(a, x)
    if len(ends) < k:
        raise CheckError(f"only {len(ends)} pooled blocks for k={k}")
    cuts = best_block_cuts(weights, means, k)
    return between_cost(a, x, [0] + [ends[c - 1] for c in cuts[1:]])


def _close(name: str, got, want) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    atol = 1e-12 * float(np.abs(want).max(initial=0.0))
    if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=atol):
        raise CheckError(f"{name}: report has {got.tolist()}, re-scored {want.tolist()}")


def _strictly_decreasing(name: str, values: list[float]) -> None:
    for j in range(1, len(values)):
        if not values[j] < values[j - 1]:
            raise CheckError(f"{name} not strictly decreasing at {j + 1}: "
                             f"{values[j - 1]!r} then {values[j]!r}")


def check_run(report: dict, g: Graph, k: int, scheme: str) -> None:
    """Check a `run` report against the input: raise CheckError if wrong."""
    order = report["order"]
    bps = report["breakpoints"]
    comms = report["communities"]
    if len(order) != g.n or set(order) != set(g.labels):
        raise CheckError("order is not a permutation of the input's vertices")
    if order[0] != g.labels[default_source(g)]:
        raise CheckError(f"order starts at {order[0]!r}, not the default source")
    if len(bps) != k + 1 or bps[0] != 1 or bps[-1] != g.n:
        raise CheckError(f"breakpoints {bps[:3]}... do not run from |S|=1 to n={g.n} "
                         f"in {k} steps")
    if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
        raise CheckError("breakpoints not strictly ascending")
    if len(comms) != k:
        raise CheckError(f"{len(comms)} communities for k={k}")
    for j, c in enumerate(comms):
        if c["vertices"] != order[:bps[j + 1]]:
            raise CheckError(f"community {j + 1} is not the order prefix of "
                             f"length {bps[j + 1]}")
    densities = [c["community_density"] for c in comms]
    centroids = [c["segment_centroid"] for c in comms]
    _strictly_decreasing("community densities", densities)
    _strictly_decreasing("segment centroids", centroids)

    ws = reweight(g, walk_scores(g, default_source(g)), scheme)
    index = g.index()
    shell = np.zeros(g.n, dtype=np.int64)
    for j in range(k):
        for label in order[bps[j]:bps[j + 1]]:
            shell[index[label]] = j + 1
    total, scores, mu, dens = score(g, ws, shell, np.diff([0] + bps).tolist())
    _close("total_score", report["total_score"], total)
    _close("segment scores", [c["segment_score"] for c in comms], scores)
    _close("segment centroids", centroids, mu)
    _close("community densities", densities, dens)

    rank = np.empty(g.n, dtype=np.int64)
    rank[[index[label] for label in order]] = np.arange(g.n)
    a, x = points(g, ws, rank)
    got = between_cost(a, x, np.array(bps) - 1)
    best = optimal_cost(a, x, k)
    slack = OPT_RTOL * best + 1e-12 * between_cost(a, x, [0, len(a)])
    if got > best + slack:
        raise CheckError(f"cuts not optimal: their cost {got!r} exceeds the "
                         f"optimum {best!r} by {(got - best) / best:.3g} of it")


def hop_levels(g: Graph, source: int) -> np.ndarray:
    """Breadth-first distance from source; unreachable vertices get max + 1."""
    adj = _adjacency(g)
    level = np.full(g.n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.zeros(g.n, dtype=bool)
    frontier[source] = True
    d = 0
    while frontier.any():
        d += 1
        reach = (adj @ frontier.astype(np.float64) > 0) & (level < 0)
        level[reach] = d
        frontier = reach
    level[level < 0] = level.max() + 1
    return level


def check_compare(report: dict, g: Graph, k_values: list[int]) -> None:
    """Check a `compare` report against the input: raise CheckError if wrong."""
    if report["k_values"] != k_values or report["schemes"] != list(SCHEMES):
        raise CheckError("k range or scheme list differs from the request")
    cells = len(SCHEMES) * len(k_values)
    wins = sum(bool(report["wins"][s][str(k)]) for s in SCHEMES for k in k_values)
    if report["cells"] != cells or report["wins_both"] != wins:
        raise CheckError(f"cells/wins_both {report['cells']}/{report['wins_both']}, "
                         f"expected {cells}/{wins}")
    if not math.isclose(report["win_rate"], wins / cells, rel_tol=1e-12):
        raise CheckError("win_rate is not wins_both / cells")

    source = default_source(g)
    p = walk_scores(g, source)
    level = hop_levels(g, source)
    sizes = np.bincount(level).tolist()
    # one segment holds every slot, so its score is the same for every order
    whole_shell = np.ones(g.n, dtype=np.int64)
    whole_shell[source] = 0
    for s in SCHEMES:
        scores = report["scores"][s]
        ratios = report["ratios"][s]
        whole, _, _, _ = score(g, reweight(g, p, s), whole_shell, [1, g.n - 1])
        for o in ORDERS:
            row = [scores[o][str(k)] for k in k_values]
            if not all(math.isfinite(v) and v >= 0 for v in row):
                raise CheckError(f"{s}/{o}: score not finite and nonnegative")
            if any(b > a * (1 + 1e-9) for a, b in zip([whole] + row, row)):
                raise CheckError(f"{s}/{o}: optimal score rises with k from the "
                                 f"k=1 score {whole}: {row}")
            bases = [v / ratios[o][str(k)] for k, v in zip(k_values, row) if v > 0]
            _close(f"{s}/{o} ratio base (k=1 score)", bases, [whole] * len(bases))
        for k in k_values:
            cell = {o: scores[o][str(k)] for o in ORDERS}
            win = cell["peel"] <= cell["degree"] and cell["peel"] <= cell["pagerank"]
            if report["wins"][s][str(k)] != win:
                raise CheckError(f"{s} k={k}: win flag contradicts the scores")

        hops = report["hops"][s]
        if hops["k"] != len(sizes) - 1:
            raise CheckError(f"{s}: hop baseline has k={hops['k']}, "
                             f"expected {len(sizes) - 1}")
        total, _, _, _ = score(g, reweight(g, p, s), level, sizes)
        _close(f"{s} hops_score", hops["hops_score"], total)
        if hops["k"] in k_values:
            _close(f"{s} hops peel_score", hops["peel_score"],
                   scores["peel"][str(hops["k"])])
