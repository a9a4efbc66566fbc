"""Graph container, edge-list parsing, and pair/density primitives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import Graph, GraphFormatError, load_edge_list
from nestseg.oracle import (avg_degree_density, cross_density,
                            cross_pair_count, cross_weight, induced_density,
                            induced_weight)

from conftest import (dyadic_graph, edge_list, neighbor_weights, path_graph,
                      star_graph, triangle_graph)


# ---------------------------------------------------------------- parsing

def test_parse_basic_edge_list():
    g = load_edge_list(["# comment", "", "a b 2.5", "b c", "  a   c  0.5  "])
    assert g.labels == ["a", "b", "c"]
    assert g.num_vertices == 3
    assert g.total_edge_count == 3
    a, b, c = (neighbor_weights(g, g.label_index[x]) for x in "abc")
    assert a[g.label_index["b"]] == 2.5
    # missing weight defaults to 1.0
    assert b[g.label_index["c"]] == 1.0
    assert a[g.label_index["c"]] == 0.5


def test_parse_labels_in_first_appearance_order():
    g = load_edge_list(["z q", "q a", "b z"])
    assert g.labels == ["z", "q", "a", "b"]


@pytest.mark.parametrize("lines,fragment", [
    (["a b 1", "a a 1"], "self-loop"),
    (["a b x"], "weight"),
    (["a"], "expected"),
    (["a b 1 2 3"], "expected"),
    (["a b -1"], "negative"),
    (["a b nan"], "finite"),
    (["a b inf"], "finite"),
    (["a b 1", "b a 2"], "duplicate"),
    # skipped lines count, and an earlier bad edge beats a later bad line
    (["# h", "", "a b", "# x", "b a 2", "c d oops"], "line 5: duplicate"),
])
def test_parse_rejects_malformed_lines(lines, fragment):
    with pytest.raises(GraphFormatError) as exc:
        load_edge_list(lines)
    assert fragment in str(exc.value)


def test_parse_error_reports_one_based_line_number():
    with pytest.raises(GraphFormatError) as exc:
        load_edge_list(["# header", "a b 1", "c d oops"])
    assert "line 3" in str(exc.value)


def test_rows_keep_edge_order():
    # edge i adds a_i -> b_i and then b_i -> a_i; rows keep that order
    g = Graph.from_edges(list("abcd"), [(2, 0, 1.0), (0, 1, 2.0), (3, 0, 3.0),
                                        (1, 2, 4.0)])
    rows = [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(4)]
    assert rows == [[2, 1, 3], [0, 2], [0, 1], [0]]
    assert edge_list(g) == [(0, 2, 1.0), (0, 1, 2.0), (0, 3, 3.0), (1, 2, 4.0)]


def test_zero_weight_edges_are_allowed():
    g = load_edge_list(["a b 0"])
    assert g.total_edge_count == 1
    assert g.weighted_degree(0) == 0.0
    assert g.degree(0) == 1


def test_from_edges_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "b"], [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "b"], [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "b"], [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "a"], [(0, 1, 1.0)])


def test_degrees_and_edge_iteration():
    g = load_edge_list(["a b 2", "b c 3", "a c 0.5"])
    a, b, c = (g.label_index[x] for x in "abc")
    assert g.degree(b) == 2
    assert g.weighted_degree(b) == 5.0
    assert g.weighted_degree(a) == 2.5
    edges = sorted(edge_list(g))
    assert edges == [(a, b, 2.0), (a, c, 0.5), (b, c, 3.0)]
    us, vs, ws = g.edge_arrays()
    assert len(us) == len(vs) == len(ws) == 3
    assert sorted(zip(us.tolist(), vs.tolist(), ws.tolist())) == edges


# ------------------------------------------------- pair counts and weights

def _enumerate_pairs(S, T):
    return {(min(u, v), max(u, v)) for u in S for v in T if u != v}


def test_cross_pair_count_hand_cases():
    assert cross_pair_count({0, 1}, {2, 3, 4}) == 6
    assert cross_pair_count({0, 1, 2}, {0, 1, 2}) == 3  # internal pairs
    assert cross_pair_count({0}, {0}) == 0
    assert cross_pair_count(set(), {1, 2}) == 0
    assert cross_pair_count({5}, {5, 6, 7}) == 2


@given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_cross_pair_count_matches_enumeration(S, T):
    assert cross_pair_count(S, T) == len(_enumerate_pairs(S, T))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9999), st.integers(2, 8),
       st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_cross_weight_matches_enumeration(seed, n, S, T):
    g = dyadic_graph(seed, n)
    S = {v for v in S if v < n}
    T = {v for v in T if v < n}
    expected = sum(neighbor_weights(g, u).get(v, 0.0)
                   for u, v in _enumerate_pairs(S, T))
    assert cross_weight(g, S, T) == pytest.approx(expected, abs=1e-12)


def test_cross_density_worked_examples():
    g = path_graph(4)
    ab = {0, 1}
    cd = {2, 3}
    # only edge between the halves is b-c
    assert cross_weight(g, ab, cd) == 1.0
    assert cross_density(g, ab, cd) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        cross_density(g, {0}, {0})


def test_induced_density_examples():
    assert induced_density(path_graph(4), {0, 1, 2, 3}) == pytest.approx(0.5)
    g = star_graph()
    assert induced_density(g, {0, 1, 2, 3}) == pytest.approx(0.5)
    assert induced_density(triangle_graph(), {0, 1, 2}) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        induced_density(g, {0})


def test_induced_weight_subsets():
    g = triangle_graph()
    assert induced_weight(g, {0, 1, 2}) == 3.0
    assert induced_weight(g, {0, 1}) == 1.0
    assert induced_weight(g, {0}) == 0.0


def test_avg_degree_density():
    g = triangle_graph()
    assert avg_degree_density(g, {0, 1, 2}) == pytest.approx(1.0)
    assert avg_degree_density(g, {0}) == 0.0
    assert avg_degree_density(g, {0, 1}) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        avg_degree_density(g, set())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9999), st.integers(2, 8))
def test_total_weight_is_conserved_across_views(seed, n):
    g = dyadic_graph(seed, n)
    total = sum(w for _, _, w in edge_list(g))
    assert induced_weight(g, set(range(n))) == total
    assert sum(g.weighted_degree(v) for v in range(n)) == 2 * total
    assert math.isclose(g.edge_arrays()[2].sum(), total, abs_tol=0)
