"""Brute-force reference solvers and property validators.

Everything here is exhaustive or sampled verification machinery for
small instances: independent re-implementations of the optimization
objectives by enumeration, used to pin down the fast algorithms in
tests and in the `verify` CLI subcommand.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph_core import Graph, GraphFormatError, VertexSet
from .cli import resolve_source
from .ordering import VertexOrder, degree_order, sort_vertices
from .segmentation import (InfeasibleKError, SegmentTable,
                           _centred_prefix_sums, _span_cost, pool_violators)
from .weighting import PageRankVector, WeightingScheme, _power_iteration


def parse_scheme(name: str) -> WeightingScheme:
    """The scheme named name, in any case and with blanks around it."""
    try:
        return WeightingScheme(name.strip().lower())
    except ValueError:
        valid = ", ".join(s.value for s in WeightingScheme)
        raise ValueError(f"unknown scheme {name!r} (expected one of {valid})") from None


def graph_from_edges(labels: list[str],
                     edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a graph from (u, v, weight) triples, either orientation."""
    heads, tails, weights = tuple(zip(*edges)) or ((), (), ())
    return Graph(labels, heads, tails, weights)


def reference_load_edge_list(lines: Iterable[str]) -> Graph:
    """The line loop that ``load_edge_list`` must match: the same Graph,
    or the same error.

    Each line is split by ``str.split``; blank lines and lines whose
    first token starts with ``#`` are skipped, and a line numbers itself
    among all lines.  The loop stops at the first line that does not
    hold 2 or 3 tokens or whose weight ``float`` rejects; the edges
    before it are built first, so a constructor error on one of them
    is raised before that line's error.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    heads: list[int] = []
    tails: list[int] = []
    weights: list[float] = []
    edge_lines: list[int] = []  # the line number of each edge
    unparsable = None
    for line_num, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) == 2:
            w = 1.0
        elif len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                unparsable = f"line {line_num}: bad weight {parts[2]!r}"
                break
        else:
            unparsable = (f"line {line_num}: expected 'u v' or 'u v weight', "
                          f"got {raw.strip()!r}")
            break
        heads.append(intern(parts[0], len(index)))
        tails.append(intern(parts[1], len(index)))
        weights.append(w)
        edge_lines.append(line_num)

    try:
        g = Graph(list(index), heads, tails, weights)
    except GraphFormatError as exc:
        raise GraphFormatError(f"line {edge_lines[exc.edge]}: {exc.reason}") from None
    if unparsable:
        raise GraphFormatError(unparsable)
    return g


def random_graph(rng: random.Random, n: int, edge_prob: float,
                 weighted: bool = False, connected: bool = False) -> Graph:
    """Random test graph with integer labels "0".."n-1".

    Each pair becomes an edge with probability edge_prob; weights are
    dyadic rationals in (0, 4] when weighted, else 1.  With connected=
    True a random spanning tree is added first so every vertex is
    reachable.
    """
    edges: dict[tuple[int, int], float] = {}

    def w() -> float:
        return rng.randint(1, 16) / 4.0 if weighted else 1.0

    if connected and n > 1:
        verts = list(range(n))
        rng.shuffle(verts)
        for i in range(1, n):
            u = verts[rng.randrange(i)]
            v = verts[i]
            edges[(min(u, v), max(u, v))] = w()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < edge_prob:
                edges[(u, v)] = w()
    labels = [str(i) for i in range(n)]
    return graph_from_edges(labels, [(u, v, wt) for (u, v), wt in edges.items()])


# The weights the degree checks draw from: the loader's whole range, from
# zero and the least subnormal to MAX_WEIGHT.
DEGREE_WEIGHTS = (0.0, 5e-324, 1e-310, 0.1, 1.0, 3.0, 2e120, 2.0**400)


def random_tied_graph(rng: random.Random,
                      weights: Sequence[float] = DEGREE_WEIGHTS) -> Graph:
    """Random test graph with labels "0".."n-1" whose weights are drawn
    from up to four of weights, and whose rows repeat in another order,
    so that exact weight sums tie.

    Vertices 0..h-1 (4 <= h <= 10) are hubs, joined at random.  Each
    other vertex copies one of a few weight lists of 3 to h weights: it
    joins as many random hubs by the list's weights, shuffled.  It adds
    them in ascending hub order (its edges' lower ends), so the copies'
    exact sums are equal while their left-to-right sums may round apart.
    """
    h = rng.randint(4, 10)
    palette = rng.sample(list(weights), rng.randint(1, min(4, len(weights))))
    edges = [(u, v, rng.choice(palette)) for u in range(h) for v in range(u + 1, h)
             if rng.random() < 0.5]
    lists = [[rng.choice(palette) for _ in range(rng.randint(3, h))]
             for _ in range(rng.randint(1, 3))]
    n = h + rng.randint(0, 16)
    for v in range(h, n):
        ws = list(rng.choice(lists))
        rng.shuffle(ws)
        edges += zip(sorted(rng.sample(range(h), len(ws))), [v] * len(ws), ws)
    rng.shuffle(edges)
    return graph_from_edges([str(v) for v in range(n)], edges)


def _members(n: int, V: VertexSet) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(V)] = True
    return mask


def cross_pair_count(S: VertexSet, T: VertexSet) -> int:
    """Number of unordered pairs {x, y}, x != y, crossing S and T.

    Overlap is allowed: a pair with both endpoints in the intersection
    is still a single pair.  Closed form |S||T| - c(c+1)/2 with
    c = |S & T|.
    """
    c = len(S & T)
    return len(S) * len(T) - c * (c + 1) // 2


def cross_weight(g: Graph, S: VertexSet, T: VertexSet) -> float:
    """Total weight of actual edges crossing S and T, each pair once."""
    us, vs, ws = g.edge_arrays()
    inS, inT = _members(g.num_vertices, S), _members(g.num_vertices, T)
    return float(ws[(inS[us] & inT[vs]) | (inT[us] & inS[vs])].sum())


def cross_density(g: Graph, S: VertexSet, T: VertexSet) -> float:
    """Mean slot weight over all pairs crossing S and T (zero slots count)."""
    pairs = cross_pair_count(S, T)
    if pairs == 0:
        raise ValueError("empty edge set has no density")
    return cross_weight(g, S, T) / pairs


def induced_weight(g: Graph, V: VertexSet) -> float:
    """Total weight of edges with both endpoints in V."""
    us, vs, ws = g.edge_arrays()
    inV = _members(g.num_vertices, V)
    return float(ws[inV[us] & inV[vs]].sum())


def induced_density(g: Graph, V: VertexSet) -> float:
    """Mean weight over all C(|V|,2) pair slots inside V."""
    n = len(V)
    if n < 2:
        raise ValueError("induced density needs at least 2 vertices")
    return induced_weight(g, V) / (n * (n - 1) // 2)


def avg_degree_density(g: Graph, V: VertexSet) -> float:
    """Induced edge weight divided by |V| (average-degree objective)."""
    if not V:
        raise ValueError("average-degree density of an empty set")
    return induced_weight(g, V) / len(V)


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps on exhaustive enumeration sizes."""
    max_vertices: int = 8
    max_blocks: int = 12
    max_k: int = 4
    sample_count: int = 50


DEFAULT_BUDGET = OracleBudget()


def _require(cond: bool, what: str):
    if not cond:
        raise ValueError(f"oracle budget exceeded: {what}")


def _weighted_centroid(points: Sequence[tuple[float, float]]) -> float:
    w = sum(p[0] for p in points)
    return sum(p[0] * p[1] for p in points) / w


def _weighted_sse(points: Sequence[tuple[float, float]], mu: float) -> float:
    return sum(w * (v - mu) ** 2 for w, v in points)


def brute_force_segmentation(points: Sequence[tuple[float, float]], k: int,
                             budget: OracleBudget = DEFAULT_BUDGET
                             ) -> tuple[list[int] | None, float]:
    """Exhaustive best k-segmentation with strictly decreasing centroids.

    Enumerates every way to cut the weighted points into k contiguous
    segments, keeps those whose segment centroids strictly decrease,
    and returns (cut positions, cost) minimizing the summed weighted
    SSE around segment centroids.  Returns (None, inf) when no cut
    qualifies.  Ties: lexicographically smallest cut vector.
    """
    n = len(points)
    _require(n <= budget.max_blocks, f"{n} points > {budget.max_blocks}")
    _require(k <= budget.max_k, f"k={k} > {budget.max_k}")
    if not 1 <= k <= n:
        return None, math.inf
    best_cuts: list[int] | None = None
    best_cost = math.inf
    for inner in itertools.combinations(range(1, n), k - 1):
        cuts = (0,) + inner + (n,)
        cost = 0.0
        prev_mu = math.inf
        ok = True
        for a, b in zip(cuts, cuts[1:]):
            seg = points[a:b]
            mu = _weighted_centroid(seg)
            if not mu < prev_mu:
                ok = False
                break
            cost += _weighted_sse(seg, mu)
            prev_mu = mu
        if ok and cost < best_cost:
            best_cost = cost
            best_cuts = list(cuts)
    return best_cuts, best_cost


def reference_segment_dp(weights: np.ndarray, means: np.ndarray, k: int
                         ) -> tuple[list[int], float]:
    """SegmentTable(weights, means).solve(k) by a full scan of every
    predecessor of every cell.

    O(N^2 k), with the same centred span costs as SegmentTable, so on
    inputs where the optimal predecessor is monotone the two return
    bit-identical cuts and cost (smallest predecessor on ties).
    """
    n = len(weights)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise InfeasibleKError(k, n)
    prefix = _centred_prefix_sums(weights, means)
    idx = np.arange(n + 1)
    best = np.full((k + 1, n + 1), np.inf)
    back = np.zeros((k + 1, n + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for ell in range(1, k + 1):
        for j in range(ell, n + 1):
            lo = ell - 1
            cand = best[ell - 1, lo:j] + _span_cost(prefix, idx[lo:j], j)
            t = int(np.argmin(cand))
            best[ell, j] = cand[t]
            back[ell, j] = lo + t
    cuts = [n]
    for ell in range(k, 0, -1):
        cuts.append(int(back[ell, cuts[-1]]))
    cuts.reverse()
    return cuts, float(best[k, n])


def reference_peel(g: Graph, S: VertexSet) -> list[int]:
    """sort_vertices(g, S).sequence by a heap of every vertex.

    The same peel with plain lazy deletion, every vertex in the heap
    from the start and one push per decrement: an entry is stale when its
    vertex is gone or its weight is no longer the vertex's weighted
    degree, and stale entries stay in the heap until popped.  The same
    start degrees, each vertex's weights added left to right in
    edge-list order, and the same decrements, one per edge of a removed
    vertex, so the weighted degrees, and hence the order, are
    bit-identical to sort_vertices.
    """
    n = g.num_vertices
    src = sorted(S)
    in_source = bytearray(n)
    for v in src:
        in_source[v] = 1
    wdeg = [0.0] * n
    for u, v, w in zip(*(a.tolist() for a in g.edge_arrays())):
        wdeg[u] += w
        wdeg[v] += w
    ptr, nbrs, wts = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    heap = [(wdeg[v], v) for v in range(n) if not in_source[v]]
    heapq.heapify(heap)
    present = bytearray([1]) * n
    removed: list[int] = []
    remaining = n - len(src)
    while remaining:
        d, x = heapq.heappop(heap)
        if not present[x] or d != wdeg[x]:
            continue  # stale entry
        present[x] = 0
        removed.append(x)
        remaining -= 1
        for j in range(ptr[x], ptr[x + 1]):
            y = nbrs[j]
            if present[y] and not in_source[y]:
                wdeg[y] -= wts[j]
                heapq.heappush(heap, (wdeg[y], y))
    removed.reverse()
    return src + removed


def reference_weighted_degrees(g: Graph) -> np.ndarray:
    """Each vertex's weight sum correctly rounded, by ``math.fsum`` over
    its row, in id order (float64): the sums that degree_order and
    resolve_source rank."""
    ptr = g.indptr.tolist()
    return np.array([math.fsum(g.weights[a:b].tolist()) for a, b in zip(ptr, ptr[1:])],
                    dtype=np.float64)


def reference_ranked_order(g: Graph, S: VertexSet, score: Sequence[float]
                           ) -> list[int]:
    """degree_order / pagerank_order's sequence by a Python sort.

    The sorted source, then every other vertex sorted on the key
    (-score[v], v).  The orders argsort -score over the ascending ids
    instead, stably; the two agree because no score is NaN and -0.0
    ties with 0.0 in both.
    """
    src = sorted(S)
    rest = [v for v in range(g.num_vertices) if v not in S]
    rest.sort(key=lambda v: (-float(score[v]), v))
    return src + rest


def reference_pagerank(g: Graph, S: VertexSet, restart: float = 0.1,
                       use_edge_weights: bool = False, tol: float = 1e-10,
                       max_iter: int = 10000) -> PageRankVector:
    """personalized_pagerank(g, S, ...) with the walk operator built from
    the u < v edge arrays by plain loops: each row lists (column,
    weight) in ascending column order, a vertex's strength adds its
    weights left to right from 0.0 in edge-list order, and a step adds
    each row's products weight / strength[x] * p[x] left to right from
    0.0, as scipy's csr_matvec does.  Same power iteration, so p,
    residual and iterations are bit-identical."""
    n = g.num_vertices
    us, vs, ws = g.edge_arrays()
    data = ws.tolist() if use_edge_weights else [1.0] * len(us)
    # symmetric weight matrix; rows index the walker's current vertex
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    strength = [0.0] * n
    for u, v, w in zip(us.tolist(), vs.tolist(), data):
        rows[u].append((v, w))
        rows[v].append((u, w))
        strength[u] += w
        strength[v] += w
    for row in rows:
        row.sort()
    dangling = np.array(strength) == 0.0
    with np.errstate(over="ignore"):
        inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, strength)).tolist()
    # step operator transposed: row y lists A[x, y] / strength[x] by x, as
    # A[x, y] * inv[x] unless 1 / strength[x] overflowed
    step_T = [[(x, w / strength[x] if math.isinf(inv[x]) else w * inv[x]) for x, w in row]
              for row in rows]

    def step(p: np.ndarray) -> np.ndarray:
        p = p.tolist()
        out = []
        for row in step_T:
            s = 0.0
            for x, a in row:
                s += a * p[x]
            out.append(s)
        return np.array(out)

    return _power_iteration(step, dangling, sorted(S), restart, tol, max_iter)


def reference_pool_violators(weights: np.ndarray, values: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """pool_violators(weights, values) as one plain Python loop: each
    point's sum w * v and mean (w * v) / w in Python floats, and the
    stack tested for emptiness before each merge test.  Same float
    operations in the same order, so every output bit is the same."""
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights > 0).all():  # NaN fails this test too
        i = int(np.argmin(weights > 0))  # the first point that fails it
        raise ValueError(f"point {i}: weight must be positive, got {weights[i].item()}")
    # the block stack, one (weight, sum, sse, mean, end) tuple per block;
    # the newest block is held in (w, s, e, m) until it stops merging
    stack: list[tuple[float, float, float, float, int]] = []
    for i, (w, v) in enumerate(zip(weights.tolist(),
                                   np.asarray(values, dtype=np.float64).tolist())):
        s, e = w * v, 0.0
        m = s / w
        while stack and stack[-1][3] <= m:
            # previous mean <= current mean: merge.  m is the mean the
            # block reports, so no two reported means tie.
            w1, s1, e1, m1, _ = stack.pop()
            e = e1 + e + (w1 * w / (w1 + w)) * (m1 - m) ** 2
            w, s = w1 + w, s1 + s
            m = s / w
        stack.append((w, s, e, m, i + 1))
    weight, _, sse, mean, end = np.array(stack, dtype=np.float64).reshape(-1, 5).T.copy()
    return end.astype(np.int64), weight, mean, sse


def exact_segment_cost(points: Sequence[tuple[float, float]],
                       cuts: Sequence[int]) -> Fraction:
    """Summed weighted SSE of the segments between cuts, in exact rationals."""
    total = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        seg = [(Fraction(w), Fraction(v)) for w, v in points[a:b]]
        w_tot = sum(w for w, _ in seg)
        mu = sum(w * v for w, v in seg) / w_tot
        total += sum(w * (v - mu) ** 2 for w, v in seg)
    return total


def exact_segmentation(points: Sequence[tuple[float, float]], k: int
                       ) -> tuple[list[int], Fraction]:
    """Optimal k-segmentation of weighted points in exact rationals.

    The O(N^2 k) DP over every predecessor, with span costs
    sq - sx^2/w from Fraction prefix sums, so no cancellation occurs
    however narrow the band of values.  Centroid order is not checked:
    on strictly decreasing values every segmentation has strictly
    decreasing centroids.  Ties: smallest predecessor.
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    pw, px, pq = [Fraction(0)], [Fraction(0)], [Fraction(0)]
    for w, v in points:
        fw, fv = Fraction(w), Fraction(v)
        pw.append(pw[-1] + fw)
        px.append(px[-1] + fw * fv)
        pq.append(pq[-1] + fw * fv * fv)

    def cost(i: int, j: int) -> Fraction:
        sx = px[j] - px[i]
        return pq[j] - pq[i] - sx * sx / (pw[j] - pw[i])

    best: list[list[Fraction | None]] = [[Fraction(0)] + [None] * n]
    back: list[list[int]] = [[0] * (n + 1)]
    for ell in range(1, k + 1):
        row: list[Fraction | None] = [None] * (n + 1)
        arg = [0] * (n + 1)
        for j in range(ell, n + 1):
            # row 0 is finite at 0 only
            for i in (range(ell - 1, j) if ell > 1 else (0,)):
                c = best[-1][i] + cost(i, j)
                if row[j] is None or c < row[j]:
                    row[j], arg[j] = c, i
        best.append(row)
        back.append(arg)
    cuts = [n]
    for ell in range(k, 0, -1):
        cuts.append(back[ell][cuts[-1]])
    cuts.reverse()
    return cuts, best[k][n]


def brute_force_antitonic_fit(points: Sequence[tuple[float, float]],
                              budget: OracleBudget = DEFAULT_BUDGET
                              ) -> tuple[list[float], float]:
    """Exhaustive best non-increasing pooled fit of weighted points.

    Tries every partition into consecutive runs, pools each run to its
    weighted mean, keeps partitions with non-increasing pooled means,
    and returns the per-point fitted values and SSE of the best one.
    """
    n = len(points)
    _require(n <= budget.max_blocks, f"{n} points > {budget.max_blocks}")
    best_fit: list[float] | None = None
    best_sse = math.inf
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        means = []
        sse = 0.0
        for a, b in zip(cuts, cuts[1:]):
            mu = _weighted_centroid(points[a:b])
            means.append((mu, b - a))
            sse += _weighted_sse(points[a:b], mu)
        if any(means[i][0] < means[i + 1][0] for i in range(len(means) - 1)):
            continue
        if sse < best_sse:
            best_sse = sse
            best_fit = [mu for mu, width in means for _ in range(width)]
    assert best_fit is not None  # the single-run partition always qualifies
    return best_fit, best_sse


def _pair_weights(g: Graph) -> dict[tuple[int, int], float]:
    us, vs, ws = g.edge_arrays()
    return dict(zip(zip(us.tolist(), vs.tolist()), ws.tolist()))


def _chain_score(g: Graph, chain: Sequence[frozenset[int]]) -> float:
    """Definition-style score: per step, SSE of the new pair slots."""
    wdict = _pair_weights(g)
    total = 0.0
    for prev, cur in zip(chain, chain[1:]):
        slots = [tuple(sorted(p)) for p in itertools.combinations(sorted(cur), 2)
                 if not (p[0] in prev and p[1] in prev)]
        weights = [wdict.get(p, 0.0) for p in slots]
        mu = sum(weights) / len(slots)
        total += sum((w - mu) ** 2 for w in weights)
    return total


def _induced_density_mask(wdict, members: tuple[int, ...]) -> float:
    m = len(members)
    w = sum(wdict.get(tuple(sorted(p)), 0.0)
            for p in itertools.combinations(members, 2))
    return w / (m * (m - 1) // 2)


def brute_force_nested(g: Graph, S: VertexSet, k: int,
                       budget: OracleBudget = DEFAULT_BUDGET
                       ) -> tuple[list[frozenset[int]] | None, float]:
    """Exhaustive best nested chain with strictly decreasing densities.

    Enumerates all chains S = V_0 < V_1 < ... < V_k = V (proper
    inclusions) whose densities d(V_1) > ... > d(V_k) strictly
    decrease, and returns the chain minimizing the summed per-step slot
    SSE, with the score.  (None, inf) when no chain is feasible.
    Ties: lexicographically smallest tuple of membership bitmasks.
    """
    n = g.num_vertices
    _require(n <= budget.max_vertices, f"{n} vertices > {budget.max_vertices}")
    _require(k <= budget.max_k, f"k={k} > {budget.max_k}")
    wdict = _pair_weights(g)
    s_mask = 0
    for v in S:
        s_mask |= 1 << v
    full = (1 << n) - 1
    if k < 1 or s_mask == full:
        return None, math.inf

    def members(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    best_chain: list[int] | None = None
    best_score = math.inf

    def recurse(chain: list[int]):
        nonlocal best_chain, best_score
        depth = len(chain) - 1
        cur = chain[-1]
        if depth == k - 1:
            candidates = [full] if full != cur else []
        else:
            rem = full & ~cur
            masks = []
            m = rem
            while True:
                if m:
                    masks.append(cur | m)
                if m == 0:
                    break
                m = (m - 1) & rem
            # proper additions that still leave room for the tail
            candidates = sorted(c for c in masks if c != full)
        for nxt in candidates:
            chain.append(nxt)
            if depth + 1 == k:
                sets = [frozenset(members(m)) for m in chain]
                dens = [_induced_density_mask(wdict, members(m)) for m in chain[1:]]
                if all(a > b for a, b in zip(dens, dens[1:])):
                    score = _chain_score(g, sets)
                    if score < best_score or (score == best_score
                                              and best_chain is not None
                                              and chain < best_chain):
                        best_score = score
                        best_chain = list(chain)
            else:
                recurse(chain)
            chain.pop()

    recurse([s_mask])
    if best_chain is None:
        return None, math.inf
    return [frozenset(members(m)) for m in best_chain], best_score


def check_prop_density(g: Graph, S: VertexSet, k: int,
                       tol: float = 1e-12,
                       budget: OracleBudget = DEFAULT_BUDGET) -> dict:
    """At the exhaustive optimum, any attachable set is no denser than
    any removable set.

    For each interior community V_i of the optimal chain, every
    nonempty X inside V_{i+1} \\ V_i and Y inside V_i \\ V_{i-1} must
    satisfy d(X, X | V_i) <= d(Y, V_i) + tol.  Returns a report dict.
    """
    chain, score = brute_force_nested(g, S, k, budget)
    if chain is None:
        return {"feasible": False, "checked": 0, "violations": 0}
    checked = 0
    violations = []
    for i in range(1, k):
        Vi = chain[i]
        outer = sorted(chain[i + 1] - Vi)
        inner = sorted(Vi - chain[i - 1])
        for rx in range(1, len(outer) + 1):
            for X in itertools.combinations(outer, rx):
                lhs = cross_density(g, set(X), set(X) | Vi)
                for ry in range(1, len(inner) + 1):
                    for Y in itertools.combinations(inner, ry):
                        rhs = cross_density(g, set(Y), Vi)
                        checked += 1
                        if lhs > rhs + tol:
                            violations.append((i, X, Y, lhs, rhs))
    return {"feasible": True, "score": score, "checked": checked,
            "violations": len(violations), "examples": violations[:5]}


def densest_prefix(g: Graph, order: VertexOrder) -> tuple[frozenset[int], float]:
    """Best prefix of the order under the average-degree objective.

    Scans all prefixes {v_1..v_i}, i >= 1, and returns the first one
    maximizing induced edge weight / vertex count, with that value.
    """
    n = g.num_vertices
    pos = order.positions()
    us, vs, ws = g.edge_arrays()
    # an edge joins the prefixes from its later endpoint's position on
    cum = np.cumsum(np.bincount(np.maximum(pos[us], pos[vs]), weights=ws,
                                minlength=n))
    density = cum / np.arange(1, n + 1)
    best = int(np.argmax(density))
    return frozenset(order.sequence[:best + 1]), float(density[best])


def brute_force_densest_subgraph(g: Graph) -> tuple[frozenset[int], float]:
    """Exhaustive maximizer of induced weight / vertex count."""
    n = g.num_vertices
    _require(n <= 10, f"{n} vertices > 10")
    best_mask, best = 0, -math.inf
    for mask in range(1, 1 << n):
        sub = {v for v in range(n) if mask >> v & 1}
        d = avg_degree_density(g, sub)
        if d > best:
            best, best_mask = d, mask
    return frozenset(v for v in range(n) if best_mask >> v & 1), best


def _weight_matrix(g: Graph) -> np.ndarray:
    n = g.num_vertices
    us, vs, ws = g.edge_arrays()
    W = np.zeros((n, n))
    W[us, vs] = ws
    W[vs, us] = ws
    return W


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of values[b] over set bits b of mask."""
    t = len(values)
    arr = np.zeros(1 << t)
    for b in range(t):
        view = arr.reshape(-1, 2, 1 << b)
        view[:, 1, :] += values[b]
    return arr


def _internal_weights(Wmat: np.ndarray, verts: Sequence[int]) -> np.ndarray:
    """wE[mask] = total weight of edges with both endpoints in the mask."""
    t = len(verts)
    masks = np.arange(1 << t)
    arr = np.zeros(1 << t)
    for i in range(t):
        for j in range(i + 1, t):
            w = Wmat[verts[i], verts[j]]
            if w:
                me = (1 << i) | (1 << j)
                arr[(masks & me) == me] += w
    return arr


def _popcounts(t: int) -> np.ndarray:
    masks = np.arange(1 << t, dtype=np.uint64)
    counts = np.zeros(1 << t, dtype=np.int64)
    while masks.any():
        counts += (masks & 1).astype(np.int64)
        masks >>= 1
    return counts


def check_peel_lower_bound(g: Graph, order: VertexOrder,
                           tol: float = 1e-12) -> dict:
    """Exhaustive check: every subset of every peel prefix has density
    to that prefix at least half the last vertex's density to it.

    For each prefix W of the order (length >= 2, past the source) with
    last vertex v, and every nonempty X inside W: d(X, W) >= d(v, W)/2
    minus tol.  Exhaustive over subsets; intended for n <= 12.
    """
    n = g.num_vertices
    _require(n <= 12, f"{n} vertices > 12 for exhaustive subset check")
    Wmat = _weight_matrix(g)
    seq = order.sequence
    s = order.source_size
    checked = 0
    violations = 0
    worst = math.inf  # min of d(X,W) - f/2 over everything
    for c in range(max(1, s), n):  # prefix = positions 0..c; last vertex peeled
        verts = seq[:c + 1]
        cands = seq[s:c + 1]  # X draws from non-source vertices only
        t = len(cands)
        wW = np.array([Wmat[v, verts].sum() for v in cands])
        f = wW[-1] / c  # d(seq[c], prefix): c pair slots
        sums = _subset_sums(wW)
        wE = _internal_weights(Wmat, cands)
        size = _popcounts(t)
        masks = np.arange(1 << t)
        nonempty = masks > 0
        num = sums[nonempty] - wE[nonempty]
        sz = size[nonempty].astype(np.float64)
        den = sz * (c + 1) - sz * (sz + 1) / 2.0
        d = num / den
        checked += int(nonempty.sum())
        margin = d - f / 2.0
        worst = min(worst, float(margin.min()))
        violations += int((margin < -tol).sum())
    return {"prefixes": n - max(1, s), "checked": checked,
            "violations": violations, "worst_margin": worst}


def check_peel_upper_bound(g: Graph, order: VertexOrder,
                           tol: float = 1e-12) -> dict:
    """Exhaustive check of the stretch-factor upper bound on the peel order.

    For positions b < its window end c (1-based, b >= 2): W is the
    prefix before b, U the window of positions b..c, f = d(v_b, W), and
    alpha the largest ratio w(v, U)/w(v, W) over v in U.  Every
    nonempty X inside U must satisfy d(X, X | W) <= (1+alpha)^2 f + tol.
    Windows containing a vertex with w(v, W) = 0 < w(v, U) are skipped
    and counted.  Exhaustive over subsets; intended for n <= 12.
    """
    n = g.num_vertices
    _require(n <= 12, f"{n} vertices > 12 for exhaustive subset check")
    Wmat = _weight_matrix(g)
    seq = order.sequence
    s = order.source_size
    checked = 0
    violations = 0
    skipped = 0
    pairs = 0
    for b in range(max(1, s), n):  # window start position; |W| = b >= 1
        Wverts = seq[:b]
        Uall = seq[b:]
        t = len(Uall)
        wW = np.array([Wmat[v, Wverts].sum() for v in Uall])
        f = wW[0] / b
        sums = _subset_sums(wW)
        wE_U = _internal_weights(Wmat, Uall)
        size = _popcounts(t)
        all_masks = np.arange(1 << t)
        # incremental per window end: vertex Uall[j] arrives at c = b + j
        wU = np.zeros(t)  # w(v, window) for v in current window
        for j in range(t):
            for i in range(j):
                w = Wmat[Uall[i], Uall[j]]
                if w:
                    wU[i] += w
                    wU[j] += w
            pairs += 1
            window = slice(0, j + 1)
            bad = (wW[window] == 0) & (wU[window] > 0)
            if bad.any():
                skipped += 1
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(wW[window] > 0, wU[window] / np.where(wW[window] > 0, wW[window], 1.0), 0.0)
            alpha = float(ratios.max())
            bound = (1.0 + alpha) ** 2 * f
            # only masks whose highest set bit is j are new to this window
            new = all_masks[(all_masks >> j) == 1]
            num = sums[new] + wE_U[new]
            sz = size[new].astype(np.float64)
            den = sz * (sz + b) - sz * (sz + 1) / 2.0
            d = num / den
            checked += len(new)
            violations += int((d > bound + tol).sum())
    return {"windows": pairs, "skipped": skipped, "checked": checked,
            "violations": violations}


def sample_peel_bounds(g: Graph, order: VertexOrder, rng,
                       samples: int = 50, tol: float = 1e-12) -> dict:
    """Sampled version of both peel-order bounds for larger graphs.

    Draws random (window, subset) instances and checks the half lower
    bound and the stretch-factor upper bound directly.  rng is a
    random.Random.
    """
    n = g.num_vertices
    Wmat = _weight_matrix(g)
    seq = order.sequence
    lower_viol = 0
    upper_viol = 0
    skipped = 0
    for _ in range(samples):
        # lower bound: prefix end c >= 1, random nonempty X within it
        c = rng.randrange(1, n)
        verts = seq[:c + 1]
        X = [v for v in verts if rng.random() < 0.5] or [rng.choice(verts)]
        wW = {v: Wmat[v, verts].sum() for v in verts}
        f = wW[verts[-1]] / c
        num = sum(wW[v] for v in X) - sum(
            Wmat[a, b] for a, b in itertools.combinations(X, 2))
        sz = len(X)
        den = sz * (c + 1) - sz * (sz + 1) // 2
        if num / den < f / 2.0 - tol:
            lower_viol += 1

        # upper bound: window start b >= 1, end c, random nonempty X
        b = rng.randrange(1, n)
        c = rng.randrange(b, n)
        Wverts = seq[:b]
        U = seq[b:c + 1]
        wWv = {v: Wmat[v, Wverts].sum() for v in U}
        wUv = {v: Wmat[v, U].sum() for v in U}
        if any(wWv[v] == 0 and wUv[v] > 0 for v in U):
            skipped += 1
            continue
        alpha = max((wUv[v] / wWv[v] if wWv[v] > 0 else 0.0) for v in U)
        f = wWv[U[0]] / b
        X = [v for v in U if rng.random() < 0.5] or [rng.choice(U)]
        num = sum(wWv[v] for v in X) + sum(
            Wmat[a, bb] for a, bb in itertools.combinations(X, 2))
        sz = len(X)
        den = sz * (sz + b) - sz * (sz + 1) // 2
        if num / den > (1.0 + alpha) ** 2 * f + tol:
            upper_viol += 1
    return {"samples": samples, "skipped": skipped,
            "lower_violations": lower_viol, "upper_violations": upper_viol}


VERIFY_PROPS = ("density", "left", "right", "pav", "dp", "degree")


def run_checks(rng: random.Random, trials: int, props: Sequence[str]
               ) -> Iterator[tuple[str, bool, str]]:
    """Randomized self-checks of the fast algorithms against the oracles.

    For each property in turn, draws `trials` random instances from rng
    and yields (prop, passed, summary), passed meaning no violation or
    mismatch.  density: the optimum's attach/remove density property;
    left, right: the peel order's lower and stretch-factor upper bounds;
    pav: pooling against the exhaustive antitonic fit; dp: the
    segmentation DP against exhaustive segmentation; degree: the degree
    order and the default source of ``random_tied_graph`` graphs against
    the fsum ranking of ``reference_weighted_degrees``.  Raises ValueError
    before any check if trials is below 1 or a property is not one of
    VERIFY_PROPS.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for prop in props:
        if prop not in VERIFY_PROPS:
            raise ValueError(f"unknown property {prop!r}")
    for prop in props:
        if prop == "density":
            viol = inst = 0
            for _ in range(trials):
                g = random_graph(rng, rng.randint(4, 7), 0.5, weighted=True)
                rep = check_prop_density(g, {rng.randrange(g.num_vertices)}, 2)
                if rep["feasible"]:
                    inst += 1
                    viol += rep["violations"]
            summary = f"{inst} feasible instances, {viol} violations"
        elif prop in ("left", "right"):
            viol = 0
            check = check_peel_lower_bound if prop == "left" else check_peel_upper_bound
            for _ in range(trials):
                g = random_graph(rng, rng.randint(4, 10), 0.5, weighted=True)
                viol += check(g, sort_vertices(g, set()))["violations"]
            summary = f"{trials} graphs, {viol} violations"
        elif prop == "pav":
            viol = 0
            for _ in range(trials):
                pts = [(rng.randint(1, 6), rng.randint(0, 16) / 4.0)
                       for _ in range(rng.randint(1, 10))]
                sse = sum(pool_violators(*zip(*pts))[3].tolist())
                _, ref = brute_force_antitonic_fit(pts)
                if abs(sse - ref) > 1e-9:
                    viol += 1
            summary = f"{trials} sequences, {viol} mismatches"
        elif prop == "degree":
            viol = 0
            for _ in range(trials):
                g = random_tied_graph(rng)
                wdeg = reference_weighted_degrees(g)
                n = g.num_vertices
                S = set(rng.sample(range(n), rng.randint(0, min(3, n))))
                top = reference_ranked_order(g, set(), wdeg)[0]
                if (degree_order(g, S).sequence != reference_ranked_order(g, S, wdeg)
                        or resolve_source(g, None) != {top}):
                    viol += 1
            summary = f"{trials} graphs, {viol} mismatches"
        else:  # dp
            viol = 0
            for _ in range(trials):
                n = rng.randint(1, 10)
                means = sorted({rng.randint(0, 40) / 4.0 for _ in range(n)},
                               reverse=True)
                weights = [rng.randint(1, 5) for _ in means]
                k = rng.randint(1, min(4, len(means)))
                _, cost = SegmentTable(weights, means).solve(k)
                _, ref = brute_force_segmentation(list(zip(weights, means)), k)
                if abs(cost - ref) > 1e-9:
                    viol += 1
            summary = f"{trials} sequences, {viol} mismatches"
        yield prop, viol == 0, summary
