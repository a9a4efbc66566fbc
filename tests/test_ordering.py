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


def test_compacted_peel_matches_uncompacted_reference(monkeypatch):
    # graphs large enough that the heap passes its 1024-entry floor and
    # is rebuilt; every scheme's weights come from a real walk vector
    heapify_calls = []
    heapify = heapq.heapify
    monkeypatch.setattr(heapq, "heapify",
                        lambda h: (heapify_calls.append(len(h)), heapify(h)))
    cases = []
    for seed, S in ((1, set()), (2, {0}), (3, {5, 17, 400})):
        g = _gnm(seed, 3000, 30000, lambda rng, m: np.ones(m))
        pr = personalized_pagerank(g, S or {0})
        cases.append((g, S))
        cases += [(apply_weighting(g, pr, scheme), S) for scheme in WeightingScheme]
    # exact ties: small integer weights
    cases.append((_gnm(4, 3000, 30000, lambda rng, m: rng.integers(1, 4, m) * 1.0),
                  {1}))
    for g, S in cases:
        del heapify_calls[:]
        assert sort_vertices(g, S).sequence == reference_peel(g, S)
        # one heapify each for the initial heaps of both peels, the rest
        # are rebuilds of the compacted heap
        assert len(heapify_calls) > 2


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
