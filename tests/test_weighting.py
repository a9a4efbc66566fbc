"""Restart-walk probability vectors and edge re-weighting schemes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import Graph
from nestseg.oracle import graph_from_edges, parse_scheme, reference_pagerank
from nestseg.weighting import (ConvergenceError, WeightingScheme,
                               apply_weighting, personalized_pagerank)

from conftest import (dyadic_graph, edge_list, graph_arrays, long_row_graphs,
                      neighbor_weights, path_graph, star_graph)


def test_two_vertex_closed_form():
    # single edge a-b, restart into {a}: p(a) = r / (1 - (1-r)^2)
    g = graph_from_edges(["a", "b"], [(0, 1, 1.0)])
    pr = personalized_pagerank(g, {0}, restart=0.1)
    assert pr.p[0] == pytest.approx(0.1 / 0.19, abs=1e-9)
    assert pr.p[1] == pytest.approx(0.09 / 0.19, abs=1e-9)
    assert pr.restart == 0.1
    assert pr.iterations >= 1
    assert pr.residual <= 1e-10


def test_probability_vector_basics():
    g = path_graph(5)
    pr = personalized_pagerank(g, {0, 1})
    assert pr.p.shape == (5,)
    assert (pr.p >= 0).all()
    assert pr.p.sum() == pytest.approx(1.0, abs=1e-9)
    # restart vertices retain at least their share of the restart mass
    assert pr.p[0] >= 0.1 / 2 - 1e-12
    assert pr.p[1] >= 0.1 / 2 - 1e-12


def test_symmetry_on_star():
    g = star_graph()
    pr = personalized_pagerank(g, {0})
    # the three leaves are interchangeable
    assert pr.p[1] == pytest.approx(pr.p[2], abs=1e-12)
    assert pr.p[2] == pytest.approx(pr.p[3], abs=1e-12)
    assert pr.p[0] > pr.p[1]


def test_unreachable_component_gets_zero_mass():
    g = graph_from_edges(["a", "b", "c", "d"],
                         [(0, 1, 1.0), (2, 3, 1.0)])
    pr = personalized_pagerank(g, {0})
    assert pr.p[2] == 0.0
    assert pr.p[3] == 0.0
    assert pr.p.sum() == pytest.approx(1.0, abs=1e-9)


def test_isolated_restart_vertex_keeps_all_mass():
    # the walk has nowhere to go from an isolated vertex; teleporting the
    # dangling mass back to the restart set keeps the total at one
    g = graph_from_edges(["a", "b", "c"], [(1, 2, 1.0)])
    pr = personalized_pagerank(g, {0})
    assert pr.p[0] == pytest.approx(1.0, abs=1e-9)
    assert pr.p[1] == 0.0


def test_weighted_walk_differs_from_uniform():
    g = graph_from_edges(["a", "b", "c"], [(0, 1, 10.0), (0, 2, 1.0)])
    uniform = personalized_pagerank(g, {0}, use_edge_weights=False)
    weighted = personalized_pagerank(g, {0}, use_edge_weights=True)
    assert uniform.p[1] == pytest.approx(uniform.p[2], abs=1e-12)
    assert weighted.p[1] > weighted.p[2]


def test_invalid_arguments_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        personalized_pagerank(g, set())
    with pytest.raises(ValueError):
        personalized_pagerank(g, {0}, restart=0.0)
    with pytest.raises(ValueError):
        personalized_pagerank(g, {0}, restart=1.0)
    with pytest.raises(ValueError):
        personalized_pagerank(g, {99})


def test_walk_parameters_that_cannot_converge_rejected_up_front():
    g = path_graph(3)
    for walk in (personalized_pagerank, reference_pagerank):
        for tol in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                walk(g, {0}, tol=tol)
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                walk(g, {0}, max_iter=max_iter)
    # the edges of the valid range still run: inf stops after one step
    assert personalized_pagerank(g, {0}, tol=math.inf).iterations == 1
    assert personalized_pagerank(g, {0}, max_iter=1, tol=math.inf).iterations == 1


def test_nonconvergence_raises_with_residual():
    g = path_graph(6)
    with pytest.raises(ConvergenceError) as exc:
        personalized_pagerank(g, {0}, max_iter=2, tol=1e-15)
    assert exc.value.residual > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9999), st.integers(2, 10))
def test_mass_conservation_on_random_graphs(seed, n):
    g = dyadic_graph(seed, n, connected=True)
    pr = personalized_pagerank(g, {0})
    assert pr.p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (pr.p >= 0).all()
    assert pr.p[0] >= 0.1 - 1e-12


def _walk_graph(seed: int) -> tuple[Graph, set[int]]:
    """Random graph with edges in random order and orientation, about half
    of them of weight 0, three isolated vertices, and a 1-3 vertex source."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    pairs = np.unique(np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1), axis=0)
    pairs = rng.permutation(pairs[pairs[:, 0] != pairs[:, 1]])
    flip = rng.random(len(pairs)) < 0.5
    heads = np.where(flip, pairs[:, 1], pairs[:, 0])
    tails = np.where(flip, pairs[:, 0], pairs[:, 1])
    w = rng.random(len(pairs)) * rng.integers(0, 2, len(pairs))
    g = Graph([str(v) for v in range(n + 3)], heads, tails, w)
    S = set(rng.choice(n + 3, size=int(rng.integers(1, 4)), replace=False).tolist())
    return g, S


def test_walk_matches_reference_operator_bit_for_bit(karate, lesmis):
    cases = [_walk_graph(seed) for seed in range(40)]
    cases += [(karate, {0}), (lesmis, {0, 11, 48})] + long_row_graphs()
    for g, S in cases:
        for weighted in (False, True):
            got = personalized_pagerank(g, S, use_edge_weights=weighted)
            want = reference_pagerank(g, S, use_edge_weights=weighted)
            assert got.p.tobytes() == want.p.tobytes()
            assert (got.residual, got.iterations) == (want.residual, want.iterations)


# ------------------------------------------------------------- reweighting

def _edge_weight(g: Graph, a: int, b: int) -> float:
    return neighbor_weights(g, a)[b]


def test_scheme_formulas_pointwise():
    g = graph_from_edges(["a", "b", "c", "d"],
                         [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0), (0, 2, 1.0)])
    pr = personalized_pagerank(g, {0})
    p = pr.p

    wn = apply_weighting(g, pr, WeightingScheme.NORM)
    ws = apply_weighting(g, pr, WeightingScheme.SUM)
    wm = apply_weighting(g, pr, WeightingScheme.MIN)
    wo = apply_weighting(g, pr, WeightingScheme.ORIGINAL)

    for u, v, w in edge_list(g):
        assert _edge_weight(wn, u, v) == pytest.approx(
            p[u] / len(neighbor_weights(g, u)) + p[v] / len(neighbor_weights(g, v)),
            abs=1e-12)
        assert _edge_weight(ws, u, v) == pytest.approx(p[u] + p[v], abs=1e-12)
        assert _edge_weight(wm, u, v) == pytest.approx(min(p[u], p[v]), abs=1e-12)
        assert _edge_weight(wo, u, v) == w


def test_reweighted_graph_is_the_constructors(karate, lesmis):
    # every scheme's graph is the one the constructor builds from g's
    # u < v edge arrays and the new weights, array for array; so is g,
    # which ORIGINAL returns as it is
    cases = [_walk_graph(seed) for seed in range(20)]
    cases += [(karate, {0}), (lesmis, {0, 11, 48}), (Graph(["a", "b"], [], [], []), {1})]
    for g, S in cases:
        assert graph_arrays(g) == graph_arrays(Graph(g.labels, g.us, g.vs, g.ws))
        pr = personalized_pagerank(g, S)
        assert apply_weighting(g, pr, WeightingScheme.ORIGINAL) is g
        for scheme in WeightingScheme:
            wg = apply_weighting(g, pr, scheme)
            assert graph_arrays(wg) == graph_arrays(Graph(g.labels, g.us, g.vs, wg.ws))


def test_reweighting_keeps_structure():
    g = star_graph()
    pr = personalized_pagerank(g, {0})
    wg = apply_weighting(g, pr, WeightingScheme.SUM)
    assert wg.labels == g.labels
    assert wg.num_vertices == g.num_vertices
    assert sorted((u, v) for u, v, _ in edge_list(wg)) == \
        sorted((u, v) for u, v, _ in edge_list(g))
    assert all(w >= 0 for _, _, w in edge_list(wg))


def test_scheme_parse():
    assert parse_scheme("sum") is WeightingScheme.SUM
    assert parse_scheme("NORM") is WeightingScheme.NORM
    with pytest.raises(ValueError):
        parse_scheme("bogus")


def test_norm_scheme_uses_unweighted_degree():
    # two graphs with the same topology but different weights must get
    # identical norm weights when the walk itself ignores weights
    g1 = graph_from_edges(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
    g2 = graph_from_edges(["a", "b", "c"], [(0, 1, 9.0), (1, 2, 3.0)])
    pr1 = personalized_pagerank(g1, {0})
    pr2 = personalized_pagerank(g2, {0})
    w1 = apply_weighting(g1, pr1, WeightingScheme.NORM)
    w2 = apply_weighting(g2, pr2, WeightingScheme.NORM)
    for u, v, _ in edge_list(g1):
        assert _edge_weight(w1, u, v) == pytest.approx(
            _edge_weight(w2, u, v), abs=1e-12)
