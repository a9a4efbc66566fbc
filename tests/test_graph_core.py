"""Graph container, edge-list parsing, and pair/density primitives."""

from __future__ import annotations

import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import (Graph, GraphFormatError, _pack_bits, _parse,
                                load_edge_list, load_edge_list_path)
from nestseg.cli import resolve_source
from nestseg.oracle import (avg_degree_density, cross_density,
                            cross_pair_count, cross_weight, graph_from_edges,
                            induced_density, induced_weight,
                            reference_load_edge_list)

from conftest import (dyadic_graph, edge_list, graph_arrays, neighbor_weights,
                      path_graph, star_graph, triangle_graph)


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
    # several comment and blank runs, between edges and before the bad one
    (["", "# h", "", "a b", "", "", "# x", "# y", "b c", "#", "", "", "c c"],
     "line 13: self-loop"),
    (["#", "", "#", "", "", "a b 1e308", "# z", "b c"], "line 6: weight too large"),
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
    g = graph_from_edges(list("abcd"), [(2, 0, 1.0), (0, 1, 2.0), (3, 0, 3.0),
                                        (1, 2, 4.0)])
    rows = [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(4)]
    assert rows == [[2, 1, 3], [0, 2], [0, 1], [0]]
    assert edge_list(g) == [(0, 2, 1.0), (0, 1, 2.0), (0, 3, 3.0), (1, 2, 4.0)]


def test_rows_keep_edge_order_seeded():
    # the edge list runs by ascending lower end, in input order within
    # each; row v lists its lower neighbors in that order (ascending id),
    # then its upper neighbors in input order, each with its weight
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 40)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(n) if a < b],
                           rng.randint(1, n * (n - 1) // 2))
        edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
        g = graph_from_edges([str(v) for v in range(n)],
                             [(a, b, float(i)) for i, (a, b) in enumerate(edges)])
        ranked = sorted((min(e), i, max(e)) for i, e in enumerate(edges))
        assert edge_list(g) == [(u, v, float(i)) for u, i, v in ranked]
        for v in range(n):
            lower = sorted((min(e), float(i)) for i, e in enumerate(edges) if max(e) == v)
            upper = [(max(e), float(i)) for i, e in enumerate(edges) if min(e) == v]
            lo, hi = g.indptr[v], g.indptr[v + 1]
            assert list(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist())) \
                == lower + upper
            assert (g.ws[g.slot_edge[lo:hi]] == g.weights[lo:hi]).all()


def test_zero_weight_edges_are_allowed():
    g = load_edge_list(["a b 0"])
    assert g.total_edge_count == 1
    assert np.array_equal(g.weighted_degrees(), [0.0, 0.0])
    edgeless = graph_from_edges(["a", "b"], [])
    for sums in (edgeless.vertex_sums(), edgeless.weighted_degrees()):
        assert sums.dtype == np.float64 and sums.tolist() == [0.0, 0.0]
    assert np.diff(g.indptr).tolist() == [1, 1]


def test_from_edges_validates():
    with pytest.raises(ValueError):
        graph_from_edges(["a", "b"], [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        graph_from_edges(["a", "b"], [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        graph_from_edges(["a", "b"], [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        graph_from_edges(["a", "a"], [(0, 1, 1.0)])


def test_degrees_and_edge_iteration():
    g = load_edge_list(["a b 2", "b c 3", "a c 0.5"])
    a, b, c = (g.label_index[x] for x in "abc")
    assert np.diff(g.indptr)[b] == 2
    assert g.weighted_degrees()[b] == 5.0
    assert g.weighted_degrees()[a] == 2.5
    edges = sorted(edge_list(g))
    assert edges == [(a, b, 2.0), (a, c, 0.5), (b, c, 3.0)]
    us, vs, ws = g.edge_arrays()
    assert len(us) == len(vs) == len(ws) == 3
    assert sorted(zip(us.tolist(), vs.tolist(), ws.tolist())) == edges


def test_weighted_degrees_match_per_vertex_sums():
    for seed in range(20):
        g = dyadic_graph(seed, 9)
        assert np.array_equal(g.weighted_degrees(),
                              [math.fsum(neighbor_weights(g, v).values()) for v in range(9)])



def _fsum_rows(g: Graph) -> np.ndarray:
    return np.array([math.fsum(g.weights[a:b].tolist())
                     for a, b in zip(g.indptr[:-1].tolist(), g.indptr[1:].tolist())])


def _same_degrees(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_weighted_degrees_of_integer_weights_are_exact_row_sums():
    rng = np.random.default_rng(0)
    for weights in (rng.integers(1, 100, 3000), rng.integers(0, 3, 3000),
                    np.full(3000, 2.0**40)):
        us = rng.integers(0, 1000, 3000)
        vs = (us + 1 + rng.integers(0, 998, 3000)) % 1000
        keep = np.unique(np.minimum(us, vs) * 1000 + np.maximum(us, vs))
        n = 1200  # ids 1000..1199 have empty rows
        g = Graph([str(v) for v in range(n)], keep // 1000, keep % 1000,
                  weights[:len(keep)] * 1.0)
        assert _same_degrees(g.weighted_degrees(), _fsum_rows(g))
    # -0.0 and zero weights; a tie for the heaviest vertex goes to the lower id
    g = graph_from_edges(list("abcde"), [(0, 1, -0.0), (1, 2, 2.0), (2, 3, 1.0),
                                         (3, 4, 2.0), (1, 3, 0.0)])
    assert _same_degrees(g.weighted_degrees(), _fsum_rows(g))
    assert g.weighted_degrees().tolist() == [0.0, 2.0, 3.0, 3.0, 2.0]
    assert resolve_source(g, None) == {2}


def test_weighted_degrees_fall_back_to_fsum():
    # a fractional weight, and integer weights whose total reaches 2**53:
    # one running sum would lose the unit weights next to 2**52
    for edges in ([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (0, 3, 0.7)],
                  [(0, 1, 2.0**52), (1, 2, 2.0**52), (2, 3, 2.0**52),
                   (3, 4, 1.0), (4, 5, 1.0), (0, 5, 3.0)]):
        g = graph_from_edges([str(v) for v in range(6)], edges)
        assert _same_degrees(g.weighted_degrees(), _fsum_rows(g))


# ------------------------------------------ the parser vs the line loop

def _loaded(load, arg):
    """Labels and the seven arrays of load(arg), or its error."""
    try:
        g = load(arg)
    except (GraphFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return graph_arrays(g)


def _line_loop(path):
    with open(path, "r", encoding="utf-8") as f:
        return reference_load_edge_list(f)


def _assert_same_load(tmp_path, data: bytes, items: list[str] | None = None):
    """The file ``data`` loads as the line loop loads it, and so do its
    lines (or ``items``) through ``load_edge_list``."""
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    assert _loaded(load_edge_list_path, str(path)) == _loaded(_line_loop, path), data
    if items is None:
        try:
            items = list(io.StringIO(data.decode("utf-8"), newline=None))
        except UnicodeDecodeError:
            return
    assert _loaded(load_edge_list, items) == _loaded(reference_load_edge_list, items), items


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
    # non-ASCII labels and blanks, and files where only some of the
    # blanks' first bytes (\xc2, \xe1, \xe2, \xe3) occur, in blanks or
    # in labels
    "\u4e2d\u6587 b\nb \u00e9 2\n".encode("utf-8"), "a\u0085b c\n".encode("utf-8"),
    "a\u3000b\u3000c\n\u3000b c\n".encode("utf-8"), "\u00a9 b\nb c\u00a02\n".encode("utf-8"),
    "a\u2014b c\n".encode("utf-8"), "a\u3042 b\u2003c\n".encode("utf-8"),
    "a\u1680b \u00e9\n".encode("utf-8"), "\u3000a b\u205fc 1\n".encode("utf-8"),
    "a\x00\u00a0b\n\ufeffc a\u0085\n".encode("utf-8"), "a\u1681 b\u00a0\n".encode("utf-8"),
]
WEIGHT_TOKENS = ["1", "2.5", "inf", "-inf", "nan", "NaN", "Infinity", "1_0",
                 "+1", "-0", ".5", "5.", "1e-400", "1e500", "0x10", "nan(1)",
                 "1__0", "_1", "1e", "e1", "--1", "0", "1E3", "x"]


@pytest.mark.parametrize("data", REGULAR_FILES)
def test_regular_files_take_the_whole_file_path(tmp_path, data):
    assert _parse(data)[3] is None  # no line is bad
    _assert_same_load(tmp_path, data)


@pytest.mark.parametrize("data", IRREGULAR_FILES)
def test_irregular_files_fall_back_to_the_line_loop(tmp_path, data):
    # comments, blank lines, CRLF and lone \r, str.split's other blanks,
    # NUL, BOM, non-ASCII and invalid UTF-8 load as the line loop loads them
    _assert_same_load(tmp_path, data)


def test_whole_file_loader_matches_line_loop(tmp_path):
    for token in WEIGHT_TOKENS:
        _assert_same_load(tmp_path, f"a b 1\nb c 2\nc d {token}\n".encode())
        _assert_same_load(tmp_path, f"# h\na b 1\n\nb c\r\nc d {token}\n".encode())


def test_str_split_blanks_are_the_parsers(tmp_path):
    # every code point str.split splits on: the bytes 9-13 and 28-32, and
    # the multi-byte ones the parser maps to spaces
    blanks = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert blanks == [*map(chr, range(9, 14)), *map(chr, range(28, 33)), "\x85", "\xa0",
                      "\u1680", *map(chr, range(0x2000, 0x200b)), "\u2028", "\u2029",
                      "\u202f", "\u205f", "\u3000"]
    for c in blanks:
        if c not in "\n\r":  # the line ends
            _assert_same_load(tmp_path, f"a{c}b\n{c}b{c}{c}c{c}2{c}\n".encode())
            assert _parse(f"a{c}b\nb c{c}2".encode())[0] == ["a", "b", "c"], repr(c)


def test_whole_file_loader_matches_line_loop_seeded(tmp_path):
    rng = random.Random(6)
    labels = ["a", "b", "c", "1", "01", "vertex_label_long", "vertex_label_lone",
              "abcdefgh", "\u00e9", "a\x00", "\x00", "x\x0by", "\ufeffq", "p\x1cq",
              "a#b", "x\x01y", "\u4e2d\u6587"]
    blanks = [" ", "\t", " ", "\t", "\u00a0", "\u3000", "\x0b"]
    outcomes = {}
    for _ in range(400):
        pool = labels[:rng.choice((3, 5, 7, len(labels)))]
        lines = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "  ", "\t", "# note", "  # note", "#",
                                         "\u00a0# x y"]))
                continue
            parts = rng.sample(pool, 2)
            if rng.random() < 0.03:
                parts[1] = parts[0]
            if rng.random() < 0.05:
                parts[1] = "#" + parts[1]  # a label, not a comment
            if rng.random() < 0.4:
                parts.append(rng.choice(WEIGHT_TOKENS if rng.random() < 0.2 else ["1", "3", "0.25"]))
            if rng.random() < 0.03:
                parts = parts[:1] if rng.random() < 0.5 else parts + ["z", "w"]
            seps = [rng.choice(blanks) * rng.randint(1, 2) for _ in parts]
            line = "".join(sep + part for sep, part in zip(seps, parts))
            line += rng.choice(["", "", " ", "\t", "\u3000"])
            lines.append(line if rng.random() < 0.2 else line.lstrip(" \t"))
        ends = ["\n"] * 8 + ["\r\n", "\r"]
        text = "".join(line + rng.choice(ends) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")
        data = text.encode("utf-8")
        if rng.random() < 0.03:
            cut = rng.randrange(len(data) + 1)
            data = data[:cut] + b"\xff" + data[cut:]  # invalid UTF-8
        _assert_same_load(tmp_path, data)
        # one item with a \n or \r inside: a blank to str.split
        items = [line + rng.choice(["", "\n", "\r\n"]) for line in lines]
        at = rng.randrange(len(items))
        items[at] = items[at].replace(" ", rng.choice(["\n", "\r", " \n "]), 1)
        _assert_same_load(tmp_path, data, items)
        kind = _loaded(load_edge_list_path, str(tmp_path / "edges.txt"))[0]
        outcomes[kind if isinstance(kind, str) else "loaded"] = True
    # both outcomes are exercised, and both kinds of error
    assert outcomes.keys() == {"loaded", "GraphFormatError", "UnicodeDecodeError"}


def _words(labels: list[bytes]) -> np.ndarray:
    """One row of NUL-padded 8-byte words, one per label, as the loader has."""
    return np.frombuffer(b"".join(lab.ljust(8, b"\0") for lab in labels),
                         dtype=np.uint64)[None]


def test_label_keys_pack_only_below_two_to_the_63():
    # t labels take (t - 1).bit_length() position bits; a word packs while
    # word << bits < 2**63
    assert _pack_bits(_words([b"a", b"b"])) == 1
    assert _pack_bits(_words([b"a"] * 1024)) == 10
    assert _pack_bits(_words([b"a"] * 1025)) == 11
    for t, bits in ((2, 1), (256, 8), (258, 9)):
        edge = np.zeros((1, t), dtype=np.uint64)
        edge[0, 1] = (1 << (63 - bits)) - 1
        assert _pack_bits(edge) == bits
        edge[0, 1] += 1
        assert _pack_bits(edge) is None
    # 256 label tokens (128 lines) pack a 7-byte label ending in "~"
    # (about 2**54.98), 258 (129 lines) do not; wider labels never pack
    assert _pack_bits(_words([b"abcdef~"] * 256)) == 8
    assert _pack_bits(_words([b"abcdef~"] * 258)) is None
    assert _pack_bits(_words([b"abcdefg?", b"a"])) == 1
    assert _pack_bits(_words([b"abcdefg@", b"a"])) is None
    assert _pack_bits(np.zeros((2, 2), dtype=np.uint64)) is None


def _star_file(lines: int, hub: str, cols: int) -> bytes:
    weight = " 2" if cols == 3 else ""
    return "".join(f"{hub} v{i}{weight}\n" if i % 2 else f"v{i} {hub}{weight}\n"
                   for i in range(lines)).encode()


@pytest.mark.parametrize("cols", [2, 3])
def test_whole_file_loader_matches_line_loop_at_the_packing_limit(tmp_path, cols):
    # the hub label decides whether the label keys pack: on each side of
    # the limit, with 7-byte labels and with 8-byte ones
    for lines, hub in ((128, "abcdef~"), (129, "abcdef~"), (127, "abcdef}"),
                       (1, "abcdefg?"), (1, "abcdefg@"), (2, "abcdefg?"),
                       (300, "abcdefgh"), (300, "a")):
        _assert_same_load(tmp_path, _star_file(lines, hub, cols))
    # a repeated edge and a self-loop still name their line
    _assert_same_load(tmp_path, _star_file(128, "abcdef~", cols) + b"v3 abcdef~\n")
    _assert_same_load(tmp_path, _star_file(128, "abcdef~", cols) + b"v3 v3\n")


@pytest.mark.parametrize("size", [7, 8, 9, 15, 16, 17])
def test_labels_across_word_boundaries_load_as_the_line_loop(tmp_path, size):
    # each 8-byte word is masked to its label's bytes: labels that share
    # their first words, or are a prefix of another, stay apart
    long = "abcdefghijklmnopqrstu"[:size]
    labels = [long, long[:-1] + "Z", long[:-1], long + "0", "a", long.upper()]
    for cols in (2, 3):
        weight = " 1.5" if cols == 3 else ""
        lines = [f"{u} {v}{weight}" for u, v in zip(labels, labels[1:] + labels[:1])]
        data = ("\n".join(lines) + "\n").encode()
        _assert_same_load(tmp_path, data)
        _assert_same_load(tmp_path, data + f"{labels[2]} {labels[3]}{weight}\n".encode())


@pytest.mark.parametrize("token", ["0.3333333333333333", "1.5e-300", "12345678.5",
                                   "1.0000000000000000000001", "0.1234567", "1e-3",
                                   "00000000000000000002", "1.5e-3000"])
def test_weight_tokens_of_any_length_load_as_the_line_loop(tmp_path, token):
    _assert_same_load(tmp_path, f"a b {token}\nbcdefghij c 2\nc a {token}\n".encode())


@pytest.mark.parametrize("data", [
    b"  \t a b\nb c\n",                      # blanks before the first token
    b"a b\n \t b c\n\tc d\n",                # blanks at line starts
    b"a b \t \nb c\t\nc d  \n",              # blanks at line ends
    b"a  \t b 2\n b \t\tc 3 \t",             # runs everywhere, no final newline
    b"abcdefghi b\nb abcdefghi",             # last line without its newline
    b"a b 0.3333333333333333",               # a long last token at the very end
])
def test_blank_runs_and_a_missing_final_newline_load_as_the_line_loop(tmp_path, data):
    _assert_same_load(tmp_path, data)


def _parse_peak(data: bytes) -> float:
    """tracemalloc peak of _parse(data) over the size of data."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert _parse(data)[3] is None
        return (tracemalloc.get_traced_memory()[1] - before) / len(data)
    finally:
        tracemalloc.stop()


def test_parse_keeps_its_temporaries_small():
    rng = random.Random(0)
    # short labels: the per-token index arrays set the peak, about 10x the
    # file; the padded copy of the file adds 1x
    short = [str(v) for v in range(5000)]
    data = "".join(f"{rng.choice(short)} {rng.choice(short)}\n"
                   for _ in range(50_000)).encode()
    assert _parse_peak(data) < 11.5
    # 9- and 12-byte labels take two words each: each row of words is
    # gathered once, with one token-sized index array and one gather
    # beside it (four subset-sized temporaries per row read 7.8x and 6.2x)
    for size, bound in ((9, 7.0), (12, 5.6)):
        labels = [f"{v:0{size}d}" for v in range(5000)]
        data = "".join(f"{rng.choice(labels)} {rng.choice(labels)}\n"
                       for _ in range(50_000)).encode()
        assert _parse_peak(data) < bound, size
    # 100-byte labels: the label words take about the file's size, and
    # the sort holds two copies of them.  A padded copy of the file that
    # outlived the gather would add 1x during the sort, about 3.2x in all
    long = [f"{v:0100d}" for v in range(2000)]
    data = "".join(f"{rng.choice(long)} {rng.choice(long)}\n"
                   for _ in range(20_000)).encode()
    assert _parse_peak(data) < 2.8


# ------------------------------------------------- with_weights

def _shuffled_graph(rng: np.random.Generator) -> Graph:
    """Random graph, edges in random order and orientation, with 0-3
    isolated vertices at random ids."""
    n = int(rng.integers(2, 80))
    pairs = np.unique(np.sort(rng.integers(0, n, size=(2 * n, 2)), axis=1), axis=0)
    pairs = rng.permutation(pairs[pairs[:, 0] != pairs[:, 1]])
    flip = rng.random(len(pairs)) < 0.5
    heads = np.where(flip, pairs[:, 1], pairs[:, 0])
    tails = np.where(flip, pairs[:, 0], pairs[:, 1])
    ids = rng.permutation(n + int(rng.integers(0, 4)))
    return Graph([str(v) for v in range(len(ids))], ids[heads], ids[tails],
                 rng.random(len(pairs)))


def test_with_weights_matches_the_constructor(karate, lesmis):
    rng = np.random.default_rng(3)
    graphs = [_shuffled_graph(rng) for _ in range(60)]
    graphs += [karate, lesmis, Graph(["a", "b"], [], [], []), Graph([], [], [], [])]
    for g in graphs:
        m = g.total_edge_count
        for ws in (rng.random(m) * rng.integers(0, 2, m), np.zeros(m), g.ws):
            got = g.with_weights(ws)
            assert graph_arrays(got) == graph_arrays(Graph(g.labels, g.us, g.vs, ws))
            assert got.label_index == g.label_index
            # the structure is shared, not copied
            assert all(getattr(got, name) is getattr(g, name)
                       for name in ("labels", "label_index", "indptr", "indices",
                                    "us", "vs", "slot_edge"))
            # and again from a graph that with_weights built
            again = got.with_weights(ws[::-1])
            assert graph_arrays(again) == graph_arrays(
                Graph(g.labels, g.us, g.vs, ws[::-1]))
            assert all(not a.flags.writeable
                       for a in (got.indices, got.weights, got.ws, got.slot_edge))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0,
                                 math.nextafter(2.0 ** 400, math.inf)])
def test_with_weights_rejects_what_the_constructor_rejects(karate, bad):
    ws = karate.ws.copy()
    assert karate.with_weights(ws).ws.tobytes() == ws.tobytes()
    ws[[7, 30]] = bad, -2.0  # the first bad edge is reported
    ws[[40, 50]] = math.nan, math.inf
    errors = []
    for build in (karate.with_weights,
                  lambda w: Graph(karate.labels, karate.us, karate.vs, w)):
        with pytest.raises(GraphFormatError) as exc:
            build(ws)
        errors.append((str(exc.value), exc.value.edge))
    assert errors[0] == errors[1]
    assert errors[0][1] == 7
    with pytest.raises(ValueError, match="differ in length"):
        karate.with_weights(ws[1:])


def test_graph_builds_keep_their_temporaries_small():
    # tracemalloc peak of each build over the bytes of the arrays it makes
    rng = np.random.default_rng(0)
    n, m = 20_000, 200_000
    lo, hi = rng.integers(0, n, (2, m + m // 20))
    codes = np.unique(np.minimum(lo, hi) * n + np.maximum(lo, hi))
    codes = rng.permutation(codes[codes // n != codes % n])[:m]
    labels, heads, tails = [str(v) for v in range(n)], codes // n, codes % n
    weights, new_weights = rng.random(m), rng.random(m)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        g = Graph(labels, heads, tails, weights)
        built = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = g.with_weights(new_weights)
        reweighted = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert built < 1.6 * sum(a.nbytes for a in (g.indptr, g.indices, g.weights,
                                                g.us, g.vs, g.ws))
    # with_weights makes only the weights, and shares the structure; the
    # weight checks' masks take an eighth of ws
    assert reweighted < 1.25 * sum(a.nbytes for a in (got.weights, got.ws))


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
    assert sum(g.weighted_degrees()) == 2 * total
    assert math.isclose(g.edge_arrays()[2].sum(), total, abs_tol=0)
