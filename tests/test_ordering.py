"""Peeling order, baseline orders, densest prefix, hop levels."""

from __future__ import annotations

import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import Graph
from nestseg.ordering import (VertexOrder, degree_order, densest_prefix,
                              hops_levels, pagerank_order, sort_vertices)
from nestseg.oracle import reference_peel
from nestseg.weighting import (WeightingScheme, apply_weighting,
                               personalized_pagerank)

from conftest import (dyadic_graph, k4_pendant, neighbor_weights, path_graph,
                      star_graph)


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
    g = Graph.from_edges(list("0123"),
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
    g = Graph.from_edges(["a", "b", "c", "d"],
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
    # graphs of 3000 vertices, past the 1024-vertex floor of the cut;
    # every scheme's weights come from a real walk vector
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
    g = Graph.from_edges([str(v) for v in range(3000)], cycle + chords)
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


def test_vertex_order_validation():
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 0, 1], source_size=0)
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 2], source_size=0)
    with pytest.raises(ValueError):
        VertexOrder(sequence=[0, 1], source_size=3)


def test_positions_and_source():
    order = VertexOrder(sequence=[2, 0, 1], source_size=1)
    # positions() is indexed by vertex id
    assert order.positions() == [1, 2, 0]
    assert order.source() == {2}


def test_densest_prefix_finds_clique():
    g = k4_pendant()
    order = sort_vertices(g, set())
    prefix, density = densest_prefix(g, order)
    assert prefix == frozenset({0, 1, 2, 3})
    assert density == pytest.approx(1.5)


def test_densest_prefix_first_max_wins():
    # two equally dense prefixes: the shorter one is reported
    g = Graph.from_edges(["a", "b", "c", "d"],
                         [(0, 1, 2.0), (2, 3, 2.0)])
    order = VertexOrder(sequence=[0, 1, 2, 3], source_size=0)
    prefix, density = densest_prefix(g, order)
    assert prefix == frozenset({0, 1})
    assert density == pytest.approx(1.0)


def test_hops_levels_path():
    g = path_graph(4)
    levels = hops_levels(g, {0})
    assert levels == [{0}, {1}, {2}, {3}]


def test_hops_levels_unreachable_trailing():
    g = Graph.from_edges(["a", "b", "c", "d"],
                         [(0, 1, 1.0), (2, 3, 1.0)])
    levels = hops_levels(g, {0})
    assert levels == [{0}, {1}, {2, 3}]


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
