"""Graph container, edge-list parsing, and pair/density primitives."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import (Graph, GraphFormatError, _parse_regular,
                                load_edge_list, load_edge_list_path)
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
    # one above 2**400, and a too large weight beats a duplicate
    (["a b 1", "b c 2.5822498780869090e+120"], "line 2: weight too large"),
    (["a b 1", "b a 1e308"], "line 2: weight too large 1e+308 (limit 2**400)"),
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


def test_rows_keep_edge_order_seeded():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 40)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(n) if a < b],
                           rng.randint(1, n * (n - 1) // 2))
        edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
        g = Graph.from_edges([str(v) for v in range(n)],
                             [(a, b, float(i)) for i, (a, b) in enumerate(edges)])
        rows = [[] for _ in range(n)]
        for i, (a, b) in enumerate(edges):
            rows[a].append((b, float(i)))
            rows[b].append((a, float(i)))
        for v in range(n):
            lo, hi = g.indptr[v], g.indptr[v + 1]
            assert list(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist())) == rows[v]


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


def test_weighted_degrees_match_per_vertex_sums():
    for seed in range(20):
        g = dyadic_graph(seed, 9)
        assert g.weighted_degrees() == [g.weighted_degree(v) for v in range(9)]
        assert g.weighted_degrees() == [math.fsum(neighbor_weights(g, v).values())
                                        for v in range(9)]


# ------------------------------------------ whole-file loader vs the loop

def _loaded(load, path):
    """Labels and the six arrays of load(path), or its error."""
    try:
        g = load(path)
    except (GraphFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    arrays = (g.indptr, g.indices, g.weights, g.us, g.vs, g.ws)
    return g.labels, [(a.dtype.str, a.tobytes()) for a in arrays]


def _line_loop(path):
    with open(path, "r", encoding="utf-8") as f:
        return load_edge_list(f)


def _assert_same_load(tmp_path, data: bytes):
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    assert _loaded(load_edge_list_path, str(path)) == _loaded(_line_loop, path), data


REGULAR_FILES = [
    b"a b\nb c\n",
    b"a\tb 2\n  b \t c   3 \nc a\t0.5",                # blanks, no final newline
    b"alpha_long_label beta_long_label 1\nbeta_long_label gamma 2\n",
    b"abcdefgh abcdefg\nabcdefg abcdefgh9\n",          # 8-byte keys and wider
    b"node_0001 node_0002\nnode_0002 node_0003\nnode_0003 node_0001\n",
    b"1 01\n01 2\n2 1\n",                               # 1 and 01 are distinct
    b"a b\nb c\nc d\nb a\n",                            # duplicate on line 4
    b"a b\nb c\nc c\n",                                 # self-loop on line 3
    b"a b 1\nb c 2\nc d -1\n",
    b"a b 1\nb c 2\nc d nan\n",
    b"a b 1\nb c 2\nc d 1e500\n",
]
IRREGULAR_FILES = [
    b"", b"\n", b"a b\n\n", b"a b\n   ", b"# h\na b\n", b"a b\n#c d\n",
    b"a#b c\n", b"a b\nb c 2\n", b"a b 1 2\n", b"a\n", b"a b\r\nb c\r\n",
    b"a b\rb c\n", b"a\x0bb\n", b"a b\x0c\n", b"a\x1cb c\n", b"a\x1db\n",
    b"a\x1eb\n", b"a\x1fb c\n", b"a\x00 b\n", b"a b\x00\n", b"a\x7f b\n",
    "\u00e9 \u00fc\n".encode("utf-8"), "\ufeffa b\n".encode("utf-8"),
    "a\u00a0b c\n".encode("utf-8"), b"a \xff\n", b"a b\nc d x\n",
]
WEIGHT_TOKENS = ["1", "2.5", "inf", "-inf", "nan", "NaN", "Infinity", "1_0",
                 "+1", "-0", ".5", "5.", "1e-400", "1e500", "0x10", "nan(1)",
                 "1__0", "_1", "1e", "e1", "--1", "0", "1E3", "x"]


@pytest.mark.parametrize("data", REGULAR_FILES)
def test_regular_files_take_the_whole_file_path(data):
    assert _parse_regular(data) is not None


@pytest.mark.parametrize("data", IRREGULAR_FILES)
def test_irregular_files_fall_back_to_the_line_loop(data):
    assert _parse_regular(data) is None


def test_whole_file_loader_matches_line_loop(tmp_path):
    for data in REGULAR_FILES + IRREGULAR_FILES:
        _assert_same_load(tmp_path, data)
    for token in WEIGHT_TOKENS:
        _assert_same_load(tmp_path, f"a b 1\nb c 2\nc d {token}\n".encode())


def test_whole_file_loader_matches_line_loop_seeded(tmp_path):
    rng = random.Random(6)
    labels = ["a", "b", "c", "1", "01", "vertex_label_long", "vertex_label_lone",
              "abcdefgh", "\u00e9", "a\x00", "x\x0by", "\ufeffq", "p\x1cq"]
    weights = ["1", "3", "0.25", "1e3", "0", "-1", "nan", "inf", "x"]
    regular = 0
    for _ in range(400):
        pool = labels[:rng.choice((3, 5, 7, len(labels)))]
        cols = rng.choice((2, 3))
        lines = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.03:
                lines.append(rng.choice(["", "# note", "  "]))
                continue
            parts = rng.sample(pool, 2)
            if rng.random() < 0.03:
                parts[1] = parts[0]
            if (cols == 3) != (rng.random() < 0.03):
                parts.append(rng.choice(weights[:5] if rng.random() < 0.9 else weights))
            seps = [rng.choice(" \t") * rng.randint(1, 2) for _ in parts]
            line = "".join(sep + part for sep, part in zip(seps, parts))
            line += rng.choice(["", "", " ", "\t"])
            lines.append(line if rng.random() < 0.1 else line.lstrip())
        ends = ["\n"] * 30 + ["\r\n", "\r"]
        text = "".join(line + rng.choice(ends) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\n")
        data = text.encode("utf-8")
        regular += _parse_regular(data) is not None
        _assert_same_load(tmp_path, data)
    assert 100 < regular < 300  # both paths are exercised


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
