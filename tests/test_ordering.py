"""Peeling order, baseline orders, densest prefix, hop levels."""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.cli import resolve_source
from nestseg.graph_core import Graph
from nestseg.ordering import (VertexOrder, degree_order, hops_levels,
                              ordered_bits, pagerank_order, sort_vertices)
from nestseg.oracle import (densest_prefix, graph_from_edges, random_graph,
                            reference_peel, reference_ranked_order)
from nestseg.segmentation import (DensityMonotonicityError, InfeasibleKError,
                                  discover)
from nestseg.weighting import (ROW_SUM_WIDTH, RowSumPlan, WeightingScheme,
                               apply_weighting, personalized_pagerank)

from conftest import (dyadic_graph, k4_pendant, long_row_graphs,
                      neighbor_weights, path_graph, star_graph)


def _labels(g: Graph, order: VertexOrder) -> list[str]:
    return [g.labels[v] for v in order.sequence]


def test_path_from_endpoint():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    assert _labels(g, order) == ["a", "b", "c", "d"]
    assert order.source_size == 1


def test_star_leaves_in_reverse_removal_order():
    g = star_graph()
    order = sort_vertices(g, {0})
    # tied leaves are removed lowest-id first; removal order is reversed
    # in the final sequence, so leaves appear in descending id
    assert _labels(g, order) == ["c", "z", "y", "x"]


def test_cycle_tie_breaking():
    g = graph_from_edges(list("0123"),
                         [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    order = sort_vertices(g, set())
    assert order.sequence == [3, 2, 1, 0]
    assert order.source_size == 0


def test_source_vertices_lead_in_ascending_id():
    g = path_graph(5)
    order = sort_vertices(g, {3, 1})
    assert order.sequence[:2] == [1, 3]
    assert set(order.sequence) == set(range(5))


def test_weight_drives_removal():
    # b has more edges but less weight than c; b goes first
    g = graph_from_edges(["a", "b", "c", "d"],
                         [(0, 1, 0.5), (1, 3, 0.5), (0, 2, 5.0), (2, 3, 5.0)])
    order = sort_vertices(g, set())
    assert order.sequence[-1] == 1  # lightest vertex removed first


def _naive_peel(g: Graph, S: set[int]) -> list[int]:
    """Quadratic re-scan reference for the heap-based peel."""
    present = set(range(g.num_vertices))
    removals = []
    while present - S:
        def wdeg(v):
            return sum(w for u, w in neighbor_weights(g, v).items() if u in present)
        v = min(present - S, key=lambda v: (wdeg(v), v))
        removals.append(v)
        present.discard(v)
    return sorted(S) + removals[::-1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 99999), st.integers(1, 10), st.integers(0, 2))
def test_peel_matches_naive_rescan(seed, n, s_size):
    g = dyadic_graph(seed, n)
    S = set(range(min(s_size, n)))
    order = sort_vertices(g, S)
    assert order.sequence == _naive_peel(g, S)


def _gnm(seed: int, n: int, m: int, weights) -> Graph:
    """m distinct random edges over 0..n-1; weights(rng, m) gives their weights."""
    rng = np.random.default_rng(seed)
    codes = np.unique(np.sort(rng.integers(0, n, size=(2 * m, 2)), axis=1)
                      @ np.array([n, 1]))
    codes = rng.permutation(codes[codes // n != codes % n])[:m]
    return Graph([str(v) for v in range(n)], codes // n, codes % n,
                 weights(rng, m))


def _count_refills(monkeypatch) -> list[int]:
    """Sizes of the heaps heapified from now on; sort_vertices heapifies
    once per raise of its cut."""
    sizes: list[int] = []
    heapify = heapq.heapify
    monkeypatch.setattr(heapq, "heapify",
                        lambda h: (sizes.append(len(h)), heapify(h)))
    return sizes


def _clique_union(sizes_weights) -> Graph:
    """Disjoint cliques, one per (size, weight), in that vertex order."""
    heads, tails, weights = [], [], []
    start = 0
    for size, w in sizes_weights:
        for u in range(start, start + size):
            for v in range(u + 1, start + size):
                heads.append(u)
                tails.append(v)
                weights.append(w)
        start += size
    return Graph([str(v) for v in range(start)], heads, tails, weights)


def test_tiered_peel_matches_reference():
    # graphs of 3000 vertices, whose first refills take 1/16 of the
    # remaining vertices; every scheme's weights come from a real walk vector
    cases = []
    for seed, S in ((1, set()), (2, {0}), (3, {5, 17, 400})):
        g = _gnm(seed, 3000, 30000, lambda rng, m: np.ones(m))
        pr = personalized_pagerank(g, S or {0})
        cases.append((g, S))
        cases += [(apply_weighting(g, pr, scheme), S) for scheme in WeightingScheme]
    # exact ties: small integer weights
    cases.append((_gnm(4, 3000, 30000, lambda rng, m: rng.integers(1, 4, m) * 1.0),
                  {1}))
    # zero-weight edges: a decrement leaves the key unchanged, so a vertex
    # has several equal entries in the heap
    cases.append((_gnm(5, 3000, 30000, lambda rng, m: rng.integers(0, 2, m) * 1.0),
                  set()))
    # vertices the edges never touch, built by the constructor: degree 0
    g = _gnm(6, 3000, 6000, lambda rng, m: rng.random(m))
    cases.append((Graph([str(v) for v in range(4000)], g.us, g.vs, g.ws), {3999}))
    # a source of all but one vertex
    cases.append((g, set(range(1, 3000))))
    for g, S in cases:
        assert sort_vertices(g, S).sequence == reference_peel(g, S)


def test_peel_cut_takes_every_tie(monkeypatch):
    # a 3000-cycle with 400 chords: 2200 vertices of degree 2 and 800 of
    # degree 3, so the cut is 2 and all 2200 ties enter the first heap
    cycle = [(v, (v + 1) % 3000, 1.0) for v in range(3000)]
    chords = [(v, v + 1500, 1.0) for v in range(0, 1200, 3)]
    g = graph_from_edges([str(v) for v in range(3000)], cycle + chords)
    refills = _count_refills(monkeypatch)
    order = sort_vertices(g, set()).sequence
    assert refills == [2200]
    assert order == reference_peel(g, set())


def test_peel_raises_its_cut_when_the_heap_runs_out(monkeypatch):
    # disjoint cliques of growing size and weight: peeling a clique
    # lowers only its own degrees, so the vertices at or below the cut
    # run out and the cut must be raised again and again
    g = _clique_union([(3 + c % 6, 1.0 + c) for c in range(600)])
    refills = _count_refills(monkeypatch)
    order = sort_vertices(g, set()).sequence
    assert len(refills) >= 3
    assert order == reference_peel(g, set())


def test_peel_raises_its_cut_on_small_graphs(monkeypatch):
    # 65-1023 vertices, where every refill takes the 64-vertex floor and
    # its ties; a 24-clique keeps some degrees above the first cut, so
    # the cut is raised at least once.  Unit weights under ORIGINAL,
    # every other scheme's weights from a real walk vector
    rng = random.Random(20)
    refills = _count_refills(monkeypatch)
    for seed in range(8):
        n = rng.randint(65, 1023)
        base = _gnm(seed, n, 3 * n, lambda r, m: np.ones(m))
        pairs = set(zip(base.us.tolist(), base.vs.tolist()))
        pairs |= {(u, v) for u in range(24) for v in range(u + 1, 24)}
        g = graph_from_edges(base.labels, [(u, v, 1.0) for u, v in sorted(pairs)])
        S = set(rng.sample(range(n), seed % 3))
        pr = personalized_pagerank(g, S or {0})
        for scheme in WeightingScheme:
            h = apply_weighting(g, pr, scheme)
            refills.clear()
            order = sort_vertices(h, S).sequence
            assert len(refills) >= 2, (n, scheme)
            assert order == reference_peel(h, S)


# -------------------------------------------- row sums and integer heap keys

def _loop_sums(indptr: np.ndarray, weights: np.ndarray) -> list[float]:
    """Each row's weights added by a plain for loop, from 0.0."""
    sums = []
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        s = 0.0
        for w in weights[a:b].tolist():
            s += w
        sums.append(s)
    return sums


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _plan_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    plan = RowSumPlan(indptr)
    buf = plan.arrange(values)
    kept = buf.tobytes()
    sums = plan.sums(buf)
    assert buf.tobytes() == kept  # sums only reads its buffer
    return sums


def test_row_sums_add_left_to_right():
    rng = np.random.default_rng(0)
    rows = [[0.1] * 10, [], [-0.0], [-0.0, 1.0], [2.0**400, 1.0, -0.0],
            [-0.0] * (ROW_SUM_WIDTH + 3),  # finished by bincount: +0.0, not -0.0
            list(rng.random(ROW_SUM_WIDTH)), list(rng.random(ROW_SUM_WIDTH + 1)),
            list(rng.random(5000) * 10.0 ** rng.integers(-8, 9, 5000)),  # a star's hub
            []]
    rows += [list(rng.random(k) * 10.0 ** rng.integers(-8, 9, k))
             for k in rng.integers(0, 90, 300).tolist()]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    weights = np.array([w for r in rows for w in r], dtype=np.float64)
    sums = _plan_sums(indptr, weights)
    assert _bits(sums) == _bits(_loop_sums(indptr, weights))
    assert sums[0] == 0.9999999999999999  # sum() is 1.0 from Python 3.12 on
    # np.bincount adds in input order from 0.0, which the plan's tail and
    # Graph.vertex_sums rely on
    row_ids = np.repeat(np.arange(len(rows)), np.diff(indptr))
    seeds = np.bincount(row_ids, weights, minlength=len(rows))
    assert _bits(seeds) == _bits(_loop_sums(indptr, weights))
    assert _plan_sums(np.zeros(1, dtype=np.int64), np.zeros(0)).tolist() == []
    # rows of 60 to 89 entries: those of at most ROW_SUM_WIDTH fill every
    # column, and the longer ones go to the bincount
    rows += [list(rng.random(k)) for k in rng.integers(60, 90, 600).tolist()]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    weights = np.array([w for r in rows for w in r], dtype=np.float64)
    assert len(RowSumPlan(indptr).columns) == ROW_SUM_WIDTH
    assert _bits(_plan_sums(indptr, weights)) == _bits(_loop_sums(indptr, weights))


def test_row_sums_of_rows_at_the_width_add_left_to_right():
    # a row of ROW_SUM_WIDTH entries is added by column, one entry longer
    # by np.bincount; both add left to right from 0.0
    rng = np.random.default_rng(64)
    w = ROW_SUM_WIDTH
    for lens in ([w], [w + 1], [w, w + 1], [w + 1, w], [w + 1, 3, w, 0, w + 1, w - 1]):
        indptr = np.cumsum([0] + lens)
        weights = rng.random(indptr[-1]) * 10.0 ** rng.integers(-8, 9, indptr[-1])
        plan = RowSumPlan(indptr)
        assert plan.long == sum(k > w for k in lens), lens
        assert len(plan.columns) == max([k for k in lens if k <= w] + [0]), lens
        assert _bits(_plan_sums(indptr, weights)) == _bits(_loop_sums(indptr, weights)), lens


def test_peel_seeds_of_long_rows_add_left_to_right():
    for g, S in long_row_graphs():
        wg = apply_weighting(g, personalized_pagerank(g, S), WeightingScheme.SUM)
        for h in (g, wg):
            assert _bits(h.vertex_sums()) == _bits(_loop_sums(h.indptr, h.weights))
            assert sort_vertices(h, S).sequence == reference_peel(h, S)


def _rows_shuffled(g: Graph, rng: np.random.Generator) -> Graph:
    """g with each row's entries in a random order: indices, weights and
    slot_edge permuted together, every other array shared."""
    h = Graph.__new__(Graph)
    for name in Graph.__slots__:
        setattr(h, name, getattr(g, name))
    ptr = g.indptr.tolist()
    perm = np.concatenate([a + rng.permutation(b - a) for a, b in zip(ptr, ptr[1:])])
    h.indices, h.weights, h.slot_edge = g.indices[perm], g.weights[perm], g.slot_edge[perm]
    return h


def _outputs(g: Graph, S: set[int], k: int, weighted_walk: bool) -> list:
    """Exact bytes of every vertex sum, walk, peel and segmentation on g."""
    walks = [personalized_pagerank(g, S, use_edge_weights=w) for w in (False, True)]
    out = [np.asarray(g.weighted_degrees(), dtype=np.float64).tobytes()]
    out += [(pr.p.tobytes(), pr.iterations, repr(pr.residual)) for pr in walks]
    for scheme in WeightingScheme:
        wg = apply_weighting(g, walks[weighted_walk], scheme)
        order = sort_vertices(wg, S)
        try:
            seq = discover(wg, order, k)
            out.append((order.sequence, seq.breakpoints, repr(
                (seq.segment_centroids, seq.segment_scores,
                 seq.community_densities, seq.total_score))))
        except (InfeasibleKError, DensityMonotonicityError) as exc:
            out.append((order.sequence, type(exc).__name__))
    return out


def test_no_output_depends_on_the_order_within_a_row():
    # weights with inexact sums, so another addition order can change a
    # vertex's sum and with it near-tied peel orders
    rng = random.Random(19)
    npr = np.random.default_rng(19)
    shuffled = 0
    for seed in range(200):
        n = rng.randint(5, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.2, 0.5])]
        rng.shuffle(pairs)
        edges = [(*rng.sample(pair, 2), rng.choice([0.1, 0.2, 0.3, 0.7])) for pair in pairs]
        g = graph_from_edges([str(v) for v in range(n)], edges)
        h = _rows_shuffled(g, npr)
        shuffled += not np.array_equal(g.indices, h.indices)
        S = set(rng.sample(range(n), rng.choice([1, 1, 2])))
        k = rng.randint(1, 4)
        assert _outputs(g, S, k, seed % 2) == _outputs(h, S, k, seed % 2), seed
    assert shuffled > 150, shuffled


def test_ordered_bits_order_as_the_floats():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(20000) * 10.0 ** rng.integers(-320, 300, 20000)
    x = np.concatenate([x, [0.0, 5e-324, -5e-324, 2.0**400, -2.0**400, 0.1,
                            -0.1, math.inf, -math.inf], x[:100]])
    order = np.argsort(x, kind="stable")
    keys, xs = ordered_bits(x[order]), x[order]
    assert (np.diff(keys) >= 0).all()
    assert ((np.diff(keys) == 0) == (np.diff(xs) == 0)).all()
    assert ordered_bits(np.array([-0.0, 0.0])).tolist() == [-1, 0]


def _least_live_degree(g: Graph, S: set[int], sequence: list[int]) -> float:
    """The least degree a remaining vertex has while `sequence` is
    peeled, replayed in plain Python from left-to-right row sums."""
    ptr, nbrs, wts = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    deg = _loop_sums(g.indptr, g.weights)
    live = set(range(g.num_vertices)) - S
    least = math.inf
    for x in reversed(sequence[len(S):]):
        live.discard(x)
        for j in range(ptr[x], ptr[x + 1]):
            if nbrs[j] in live:
                deg[nbrs[j]] -= wts[j]
                least = min(least, deg[nbrs[j]])
    return least


def test_peel_through_negative_degrees():
    # decimal weights: a degree summed in one order and decremented in
    # another can end below zero while its vertex remains
    negative = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(4, 25)
        edges = [(u, v, rng.choice([0.1, 0.2, 0.3, 0.7]))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = graph_from_edges([str(v) for v in range(n)], edges)
        S = set(range(seed % 2))
        order = sort_vertices(g, S).sequence
        assert order == reference_peel(g, S)
        negative += _least_live_degree(g, S, order) < 0
    assert negative >= 5
    # 2**53 absorbs the three unit weights in x's seed, but the unit leaves
    # are subtracted exactly: x (id 0) reaches -3 when L (id 1) goes
    edges = [(0, 1, 2.0**53)] + [(0, v, 1.0) for v in (2, 3, 4)] \
        + [(1, v, 1.0) for v in (5, 6, 7, 8)] + [(0, 9, 0.0)]
    g = graph_from_edges([str(v) for v in range(10)], edges)
    order = sort_vertices(g, set()).sequence
    assert order == reference_peel(g, set())
    assert _least_live_degree(g, set(), order) == -3.0


def test_peel_with_zero_and_negative_zero_weights():
    for seed in range(6):
        g = _gnm(seed, 1500, 6000,
                 lambda rng, m: rng.choice([0.0, -0.0, 1.0, 0.5], m))
        S = {seed} if seed % 2 else set()
        assert sort_vertices(g, S).sequence == reference_peel(g, S)
    g = _gnm(7, 300, 900, lambda rng, m: np.full(m, -0.0))
    assert sort_vertices(g, set()).sequence == reference_peel(g, set())


def test_peel_on_exact_ties():
    # unit weights on 4000 vertices, sparse enough that the peel
    # reaches the cut's degree before raising it: vertices fall from above
    # the cut to exactly the cut and must be pushed
    for seed, S in ((8, set()), (9, {0, 1})):
        g = _gnm(seed, 4000, 6000, lambda rng, m: np.ones(m))
        assert sort_vertices(g, S).sequence == reference_peel(g, S)


@pytest.mark.parametrize("j", [1, 2, 5, 10, 11])
def test_peel_keys_at_powers_of_two(j):
    # b = n.bit_length() must leave room for the largest id, n - 1
    for n in (2**j - 1, 2**j, 2**j + 1):
        if n < 32:
            rng = random.Random(n)
            g = graph_from_edges([str(v) for v in range(n)],
                                 [(u, v, float(rng.randint(1, 3)))
                                  for u in range(n) for v in range(u + 1, n)])
        else:
            g = _gnm(n, n, 3 * n, lambda rng, m: rng.integers(1, 4, m) * 1.0)
        assert sort_vertices(g, set()).sequence == reference_peel(g, set())
        assert sort_vertices(g, {n - 1}).sequence == reference_peel(g, {n - 1})


def test_peel_near_the_largest_weight():
    for seed in range(4):
        g = _gnm(seed, 400, 2000,
                 lambda rng, m: 2.0**400 * (1 - rng.integers(0, 4, m) * 2.0**-52))
        assert sort_vertices(g, set()).sequence == reference_peel(g, set())


def test_vertex_order_validation():
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 0, 1], source_size=0)
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 2], source_size=0)
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 1], source_size=3)


_SOURCE_ENTRY_POINTS = {
    "sort_vertices": sort_vertices,
    "degree_order": degree_order,
    "pagerank_order": lambda g, S: pagerank_order(g, S, personalized_pagerank(g, {0})),
    "hops_levels": hops_levels,
    "personalized_pagerank": personalized_pagerank,
}


@pytest.mark.parametrize("entry", _SOURCE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [-1, 5])
def test_source_ids_out_of_range_raise_one_error(entry, bad):
    # every library entry point that takes a source set checks its ids
    # alike, alone or beside a valid id
    g = path_graph(5)
    for S in ({bad}, {0, bad}):
        with pytest.raises(ValueError, match=r"^source ids out of range 0\.\.4$"):
            _SOURCE_ENTRY_POINTS[entry](g, S)


def test_positions_and_source():
    order = VertexOrder(sequence=[2, 0, 1], source_size=1)
    # positions() is indexed by vertex id
    assert order.positions().tolist() == [1, 2, 0]
    assert order.positions().dtype == np.int64
    assert frozenset(order.sequence[:order.source_size]) == {2}


def test_densest_prefix_finds_clique():
    g = k4_pendant()
    order = sort_vertices(g, set())
    prefix, density = densest_prefix(g, order)
    assert prefix == frozenset({0, 1, 2, 3})
    assert density == pytest.approx(1.5)


def test_densest_prefix_first_max_wins():
    # two equally dense prefixes: the shorter one is reported
    g = graph_from_edges(["a", "b", "c", "d"],
                         [(0, 1, 2.0), (2, 3, 2.0)])
    order = VertexOrder(sequence=[0, 1, 2, 3], source_size=0)
    prefix, density = densest_prefix(g, order)
    assert prefix == frozenset({0, 1})
    assert density == pytest.approx(1.0)


def test_hops_levels_path():
    g = path_graph(4)
    level = hops_levels(g, {0})
    assert level.dtype == np.int64
    assert level.tolist() == [0, 1, 2, 3]


def test_hops_levels_unreachable_trailing():
    g = graph_from_edges(["a", "b", "c", "d"],
                         [(0, 1, 1.0), (2, 3, 1.0)])
    assert hops_levels(g, {0}).tolist() == [0, 1, 2, 2]


def _python_bfs_levels(g: Graph, S: set[int]) -> tuple[list[set[int]], set[int]]:
    """BFS distance classes from S by Python sets, and the unreached rest."""
    levels, seen = [set(S)], set(S)
    while True:
        nxt = {y for x in levels[-1] for y in neighbor_weights(g, x)} - seen
        if not nxt:
            break
        seen |= nxt
        levels.append(nxt)
    return levels, set(range(g.num_vertices)) - seen


def test_hops_levels_match_python_bfs():
    disconnected = 0
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        g = dyadic_graph(seed, n, edge_prob=rng.choice([0.05, 0.1, 0.3]))
        S = set(rng.sample(range(n), rng.randint(1, 3)))
        levels, rest = _python_bfs_levels(g, S)
        level = hops_levels(g, S)
        assert level.dtype == np.int64
        # the reference classes tile the vertices, so this pins every level
        for depth, members in enumerate(levels + ([rest] if rest else [])):
            assert set(np.flatnonzero(level == depth).tolist()) == members
        disconnected += bool(rest)
    assert disconnected >= 5


def test_degree_order_descending_weight():
    g = star_graph()
    order = degree_order(g, set())
    assert order.sequence[0] == 0  # hub first
    assert order.sequence[1:] == [1, 2, 3]  # tied leaves by ascending id


def test_pagerank_order_descending_mass():
    g = path_graph(5)
    pr = personalized_pagerank(g, {0})
    order = pagerank_order(g, {0}, pr)
    assert order.sequence[0] == 0
    # mass decays monotonically along the path from the restart vertex
    assert order.sequence == [0, 1, 2, 3, 4]
    assert order.source_size == 1


def test_baseline_orders_match_python_sort_reference():
    # one stable argsort of -score over the ascending ids gives the
    # (-score, id) sort: on unit weights (many exact degree ties), on
    # disconnected graphs (walk score 0.0 off the source's component),
    # on re-weighted graphs, with sources of 0 to 3 vertices
    ties = zeros = empty = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice([0.02, 0.1, 0.4]),
                         weighted=seed % 3 == 0, connected=seed % 4 == 0)
        S = set(rng.sample(range(n), min(n, rng.randint(1, 3))))
        pr = personalized_pagerank(g, S)
        g = apply_weighting(g, pr, list(WeightingScheme)[seed % 4]) if seed % 5 == 0 else g
        wdeg = g.weighted_degrees()
        for src in (S, set()):
            assert (degree_order(g, src).sequence
                    == reference_ranked_order(g, src, wdeg)), seed
            assert (pagerank_order(g, src, pr).sequence
                    == reference_ranked_order(g, src, pr.p)), seed
            empty += not src
        ties += len(set(wdeg)) < n
        zeros += bool((pr.p == 0.0).any())
    assert ties > 20 and zeros > 5 and empty == 60, (ties, zeros, empty)


def test_degree_order_keeps_an_exact_tie_by_id(lesmis):
    # under --scheme norm, Combeferre and Feuilly have equal exact weight
    # sums.  Correctly rounded, both are the same float and the lower id
    # goes first; added left to right, the sums round apart and Feuilly
    # would go first.  So weighted_degrees keeps math.fsum
    S = resolve_source(lesmis, None)
    wg = apply_weighting(lesmis, personalized_pagerank(lesmis, S), WeightingScheme.NORM)
    c, f = wg.label_index["Combeferre"], wg.label_index["Feuilly"]
    edges = list(zip(*(a.tolist() for a in wg.edge_arrays())))
    exact, running = [], []
    for x in (c, f):
        ws = [w for u, v, w in edges if x in (u, v)]
        exact.append(sum(map(Fraction, ws)))
        total = 0.0
        for w in ws:
            total += w
        running.append(total)
    assert exact[0] == exact[1] and running[0] < running[1]
    wdeg = wg.weighted_degrees()
    assert wdeg[c] == wdeg[f] == float(exact[0])
    assert float(wdeg[c]).hex() == "0x1.8f232a56103efp-6"
    seq = degree_order(wg, S).sequence
    assert c < f and seq.index(c) + 1 == seq.index(f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9999), st.integers(2, 9))
def test_all_orders_are_permutations(seed, n):
    g = dyadic_graph(seed, n)
    S = {0}
    pr = personalized_pagerank(g, S)
    for order in (sort_vertices(g, S), degree_order(g, S),
                  pagerank_order(g, S, pr)):
        assert sorted(order.sequence) == list(range(n))
        assert order.sequence[0] == 0
