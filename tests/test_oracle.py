"""The brute-force reference solvers themselves."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nestseg.graph_core import Graph
from nestseg.ordering import sort_vertices
from nestseg.oracle import (DEFAULT_BUDGET, OracleBudget,
                            brute_force_antitonic_fit,
                            brute_force_densest_subgraph, brute_force_nested,
                            brute_force_segmentation, check_peel_lower_bound,
                            check_peel_upper_bound, check_prop_density,
                            exact_segment_cost, exact_segmentation,
                            induced_density, random_graph,
                            reference_segment_dp, sample_peel_bounds)
from nestseg.segmentation import InfeasibleKError, discover, score_sequence

from conftest import (dyadic_graph, edge_list, k4_pendant, neighbor_weights,
                      path_graph, triangle_graph)


def test_segmentation_oracle_hand_case():
    points = [(1.0, 3.0), (1.0, 2.0), (1.0, 1.0)]
    cuts, cost = brute_force_segmentation(points, 3)
    assert cost == pytest.approx(0.0)
    cuts, cost = brute_force_segmentation(points, 1)
    assert cost == pytest.approx(2.0)


def test_segmentation_oracle_infeasible_returns_inf():
    # increasing points leave no strictly decreasing 2-segmentation
    cuts, cost = brute_force_segmentation([(1.0, 1.0), (1.0, 2.0)], 2)
    assert cuts is None
    assert cost == math.inf


def test_segmentation_oracle_budget():
    pts = [(1.0, float(i)) for i in range(20)]
    with pytest.raises(ValueError, match="budget"):
        brute_force_segmentation(pts, 2)
    with pytest.raises(ValueError, match="budget"):
        brute_force_segmentation(pts[:5], 6)


def test_dp_oracles_match_exhaustive_segmentation():
    rng = random.Random(31)
    for _ in range(150):
        means = sorted({rng.randint(0, 40) / 4.0 for _ in range(rng.randint(1, 10))},
                       reverse=True)
        weights = [float(rng.randint(1, 5)) for _ in means]
        points = list(zip(weights, means))
        k = rng.randint(1, min(4, len(points)))
        cuts, cost = brute_force_segmentation(points, k)
        exact_cuts, exact = exact_segmentation(points, k)
        assert float(exact) == pytest.approx(cost, abs=1e-9)
        assert exact_segment_cost(points, exact_cuts) == exact
        assert exact_segment_cost(points, cuts) == exact
        ref_cuts, ref = reference_segment_dp(np.array(weights),
                                             np.array(means), k)
        assert ref == pytest.approx(cost, abs=1e-9)
        assert exact_segment_cost(points, ref_cuts) == exact


def test_dp_oracles_hand_case_and_bad_k():
    points = [(1.0, 3.0), (1.0, 2.0), (1.0, 1.0)]
    # symmetric optimum: both take the smallest predecessor
    assert exact_segmentation(points, 2) == ([0, 1, 3], Fraction(1, 2))
    weights, means = np.ones(3), np.array([3.0, 2.0, 1.0])
    assert reference_segment_dp(weights, means, 2) == ([0, 1, 3], 0.5)
    with pytest.raises(ValueError):
        exact_segmentation(points, 4)
    with pytest.raises(InfeasibleKError):
        reference_segment_dp(weights, means, 4)


def test_antitonic_oracle_hand_case():
    fitted, sse = brute_force_antitonic_fit([(1.0, 3.0), (1.0, 1.0), (1.0, 2.0)])
    assert fitted == pytest.approx([3.0, 1.5, 1.5])
    assert sse == pytest.approx(0.5)


def test_antitonic_oracle_increasing_input_goes_flat():
    fitted, sse = brute_force_antitonic_fit([(1.0, 1.0), (1.0, 3.0)])
    assert fitted == pytest.approx([2.0, 2.0])
    assert sse == pytest.approx(2.0)


def test_nested_oracle_matches_fixed_order_on_tiny_graph():
    # the free-form oracle optimum can only be at least as good as the
    # fixed-order optimum discover() attains
    g = path_graph(4)
    order = sort_vertices(g, {0})
    seq = discover(g, order, 2)
    chain, score = brute_force_nested(g, {0}, 2)
    assert chain is not None
    assert score <= seq.total_score + 1e-12
    # chain[0] is the source level; communities follow, properly nested,
    # with strictly decreasing densities
    assert chain[0] == frozenset({0})
    assert set(chain[1]) > {0}
    assert set(chain[1]) < set(chain[2])
    assert induced_density(g, set(chain[1])) > induced_density(g, set(chain[2]))


def test_nested_oracle_budget():
    g = random_graph(random.Random(0), 12, 0.4)
    with pytest.raises(ValueError, match="budget"):
        brute_force_nested(g, {0}, 2)


def test_densest_subgraph_prefers_clique():
    best, density = brute_force_densest_subgraph(k4_pendant())
    assert best == frozenset({0, 1, 2, 3})
    assert density == pytest.approx(1.5)


def test_densest_subgraph_triangle():
    best, density = brute_force_densest_subgraph(triangle_graph())
    assert best == frozenset({0, 1, 2})
    assert density == pytest.approx(1.0)


def test_prop_density_report_structure():
    g = dyadic_graph(4, 6, connected=True)
    report = check_prop_density(g, {0}, 2)
    assert set(report) >= {"feasible", "checked", "violations", "examples"}
    if report["feasible"]:
        assert report["checked"] > 0
        assert report["violations"] == 0, report["examples"]


def test_peel_bound_checks_run_clean_on_random_graphs():
    for seed in range(10):
        g = dyadic_graph(seed, 8, connected=True)
        order = sort_vertices(g, set())
        low = check_peel_lower_bound(g, order)
        high = check_peel_upper_bound(g, order)
        assert low["violations"] == 0, low
        assert high["violations"] == 0, high
        assert low["checked"] > 0
        assert high["checked"] > 0


def test_sampled_peel_bounds_on_larger_graph():
    g = random_graph(random.Random(3), 24, 0.25, weighted=True, connected=True)
    order = sort_vertices(g, set())
    report = sample_peel_bounds(g, order, random.Random(1), samples=40)
    assert report["lower_violations"] == 0, report
    assert report["upper_violations"] == 0, report
    assert report["samples"] == 40


def test_random_graph_determinism_and_connectivity():
    a = random_graph(random.Random(42), 10, 0.3, weighted=True, connected=True)
    b = random_graph(random.Random(42), 10, 0.3, weighted=True, connected=True)
    assert sorted(edge_list(a)) == sorted(edge_list(b))
    # connected=True guarantees a spanning tree
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in neighbor_weights(a, v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    assert seen == set(range(10))
    assert all(w in {i / 4 for i in range(1, 17)} for _, _, w in edge_list(a))


def test_budget_override():
    tight = OracleBudget(max_vertices=3, max_blocks=3, max_k=2)
    with pytest.raises(ValueError, match="budget"):
        brute_force_nested(path_graph(4), {0}, 2, budget=tight)
    assert DEFAULT_BUDGET.max_vertices >= 8
