"""End-to-end command-line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestseg
from nestseg import cli, segmentation
from nestseg.cli import (RunConfig, compare_baselines, dumps_indented, main,
                         resolve_source, run_pipeline)
from nestseg.graph_core import Graph, load_edge_list_path
from nestseg.oracle import reference_pagerank
from nestseg.ordering import sort_vertices
from nestseg.weighting import WeightingScheme, apply_weighting, personalized_pagerank

from conftest import KARATE, LESMIS, path_graph


KARATE_PATH = str(KARATE)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ reports

_SCALARS = (st.text() | st.sampled_from(["", "é", '"q"', "\\", "\u2028", "a\nb"])
            | st.integers() | st.booleans() | st.none()
            | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
_JSON = st.recursive(_SCALARS,
                     lambda inner: st.lists(inner, max_size=6)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=6),
                     max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_dumps_indented_matches_json_indent(obj):
    assert dumps_indented(obj) == json.dumps(obj, indent=2)


def test_dumps_indented_on_other_containers():
    # tuples and non-str keys take json's own path, indented to depth
    for obj in ({"a": (1, [2.5, None])}, [{1: "x", None: [True]}], {"": {}},
                [[], {}, [[]]], ("a",)):
        assert dumps_indented(obj) == json.dumps(obj, indent=2)


def test_run_json_schema_and_frozen_values(capsys):
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH,
                             "-k", "3", "--scheme", "sum")
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == {"order", "breakpoints", "communities", "total_score"}
    assert report["breakpoints"] == [1, 4, 16, 34]
    assert report["order"][0] == "34"
    assert report["communities"][0]["vertices"] == ["34", "33", "24", "30"]
    assert report["total_score"] == pytest.approx(1.0309838328229002, abs=1e-9)
    dens = [c["community_density"] for c in report["communities"]]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    # communities are nested: each vertex list extends the previous one
    for prev, cur in zip(report["communities"], report["communities"][1:]):
        assert cur["vertices"][:len(prev["vertices"])] == prev["vertices"]
    assert len(report["communities"][-1]["vertices"]) == 34
    # total equals the sum of per-segment scores
    assert report["total_score"] == pytest.approx(
        sum(c["segment_score"] for c in report["communities"]), abs=1e-9)


def test_run_is_deterministic(capsys):
    argv = ("run", "--input", KARATE_PATH, "-k", "4", "--scheme", "norm")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_run_explicit_source(capsys):
    code, out, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "2", "--source", "1")
    assert code == 0
    report = json.loads(out)
    assert report["order"][0] == "1"
    assert report["communities"][0]["vertices"][0] == "1"


def test_run_multi_vertex_source(capsys):
    code, out, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "2", "--source", "1,34", "--scheme", "norm")
    report = json.loads(out)
    if code == 0:
        assert report["order"][:2] == ["1", "34"]
    else:
        assert code == 1  # density monotonicity can fail for larger sources


@pytest.mark.parametrize("order", ["peel", "degree", "pagerank", "hops"])
def test_run_alternative_orders(capsys, order):
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH,
                             "-k", "3", "--order", order)
    assert code == 0, err
    report = json.loads(out)
    assert len(report["order"]) == 34


def test_run_original_scheme_keeps_weights(capsys):
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH,
                             "-k", "3", "--scheme", "original")
    assert code == 0, err


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["breakpoints"][0] == 1


# ------------------------------------------------------------------ formats

def test_dot_output_shape(capsys):
    code, out, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "3", "--format", "dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph communities {"
    assert lines[-1] == "}"
    assert out.count("peripheries=2") == 1  # single source vertex
    g = load_edge_list_path(KARATE_PATH)
    assert out.count(" -- ") == g.total_edge_count
    assert out.count("fillcolor") == g.num_vertices
    # k=3 plus the source color
    colors = {ln.split('fillcolor="')[1].split('"')[0]
              for ln in lines if "fillcolor" in ln}
    assert len(colors) == 4


def test_dot_output_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = tmp_path / "quoted.txt"
    path.write_text('a"b c\\\nc\\ d\nd a"b\nd e\ne f\nf d\n')
    code, out, _ = run_cli(capsys, "run", "--input", str(path), "-k", "2",
                           "--format", "dot")
    assert code == 0
    quoted = r'"((?:[^"\\]|\\.)*)"'
    node = re.compile(rf'  {quoted} \[fillcolor="#[0-9a-f]{{6}}"(?:, peripheries=2)?\];')
    edge = re.compile(rf"  {quoted} -- {quoted};")
    lines = out.splitlines()
    assert lines[:2] == ["graph communities {", "  node [style=filled];"]
    assert lines[-1] == "}"
    nodes = [node.fullmatch(ln) for ln in lines[2:7]]
    edges = [edge.fullmatch(ln) for ln in lines[7:-1]]
    assert all(nodes) and all(edges) and len(edges) == 6
    unescape = functools.partial(re.sub, r"\\(.)", r"\1")
    assert {unescape(mt[1]) for mt in nodes} == {'a"b', "c\\", "d", "e", "f"}
    assert {tuple(sorted(map(unescape, mt.groups()))) for mt in edges} == {
        ('a"b', "c\\"), ("c\\", "d"), ('a"b', "d"), ("d", "e"), ("e", "f"), ("d", "f")}


@pytest.mark.parametrize("seed", range(3))
def test_dot_edges_follow_the_order_on_large_graphs(seed):
    # two G(n, m) components and isolated vertices, a source in each
    # component, quoted and non-ASCII labels: the edge lines are the
    # sorted (earlier, later) position pairs
    rng = random.Random(seed)
    n = rng.randint(1900, 2100)
    labels = [rng.choice(["v", 'q"', "b\\", "\u00e9", "\u4e2d"]) + str(v) for v in range(n)]
    half = n // 2
    edges = set()
    while len(edges) < 3 * n:
        lo, hi = (0, half) if rng.random() < 0.5 else (half, n - 40)
        edges.add(tuple(sorted(rng.sample(range(lo, hi), 2))))
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)]
    rng.shuffle(edges)
    g = Graph(labels, *zip(*edges), [rng.randint(1, 9) for _ in edges])
    S = {rng.randrange(half), rng.randrange(half, n - 40)}
    order = sort_vertices(g, S)
    seq = segmentation.Segmenter(g, order).discover(4)
    pos_of = order.positions().tolist()
    pairs = sorted((min(pos_of[u], pos_of[v]), max(pos_of[u], pos_of[v])) for u, v in edges)
    name = [cli._dot_id(labels[v]) for v in order.sequence]
    lines = cli.export_dot(g, seq).splitlines()
    assert lines[2 + n:-1] == [f"  {name[a]} -- {name[b]};" for a, b in pairs]
    assert [line.split(" [")[0] for line in lines[2:2 + n]] == [f"  {x}" for x in name]


def test_export_subcommand_matches_dot_format(capsys):
    _, dot1, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                         "-k", "3", "--format", "dot")
    _, dot2, _ = run_cli(capsys, "export", "--input", KARATE_PATH, "-k", "3")
    assert dot1 == dot2


def test_tsv_output_shape(capsys):
    code, out, _ = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "3", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["position", "vertex", "pair_count",
                                    "density", "internal_sse", "segment"]
    assert len(lines) == 34  # header + one row per non-source vertex
    first = lines[1].split("\t")
    assert first[0] == "2"
    assert first[2] == "1"
    segments = [int(row.split("\t")[5]) for row in lines[1:]]
    assert segments == sorted(segments)
    assert set(segments) == {1, 2, 3}


# ------------------------------------------------------------------ compare

def test_compare_report_structure(capsys):
    code, out, err = run_cli(capsys, "compare", "--input", KARATE_PATH,
                             "--k-min", "2", "--k-max", "4")
    assert code == 0, err
    report = json.loads(out)
    assert report["cells"] == 9  # 3 schemes x 3 values of k
    assert set(report["schemes"]) == {"norm", "sum", "min"}
    for scheme in report["schemes"]:
        for order in ("peel", "degree", "pagerank"):
            scores = report["scores"][scheme][order]
            assert set(scores) == {"2", "3", "4"}
        for k, won in report["wins"][scheme].items():
            peel = report["scores"][scheme]["peel"][k]
            deg = report["scores"][scheme]["degree"][k]
            pg = report["scores"][scheme]["pagerank"][k]
            assert won == (peel <= deg and peel <= pg)
        hops = report["hops"][scheme]
        assert hops["k"] >= 1
        assert hops["hops_score"] > 0
    assert 0.0 <= report["win_rate"] <= 1.0
    assert report["wins_both"] <= report["cells"]


def test_compare_ratios_normalized_by_single_community_score():
    cfg = RunConfig(input_path=KARATE_PATH, k=1, scheme=WeightingScheme.SUM)
    report = compare_baselines(cfg, range(2, 4))
    for scheme in report["ratios"]:
        for ratios in report["ratios"][scheme].values():
            for ratio in ratios.values():
                if ratio is not None:
                    assert ratio > 0
    assert list(report) == ["k_values", "schemes", "scores", "ratios", "wins",
                            "hops", "cells", "wins_both", "win_rate"]
    assert report["cells"] == 6


def test_compare_grows_all_distinct_tables_together(monkeypatch):
    # one _dp_row call per row fills that row of every distinct (scheme,
    # order) table; growing each scheme's tables alone would take three
    # times as many
    rows = []
    real = segmentation._dp_row

    def counted(prefix, prev, ell, edge):
        rows.append((ell, len(edge) - 1))
        return real(prefix, prev, ell, edge)

    monkeypatch.setattr(segmentation, "_dp_row", counted)
    report = compare_baselines(RunConfig(input_path=str(LESMIS)), range(2, 11))
    # 10 calls: rows 1..10, each over the 3 schemes x 3 orders less the
    # norm walk-score order, which is the norm degree order
    assert rows == [(ell, 8) for ell in range(1, 11)]
    assert max(h["k"] for h in report["hops"].values()) <= 10


def test_compare_pools_each_distinct_order_once(monkeypatch):
    # under norm a non-source vertex's weighted degree is, at the walk's
    # fixed point, a fixed multiple of its walk score, and on lesmis the
    # degree and walk-score orders are one sequence: one Segmenter serves
    # both, and both keep their cells
    built = []
    real = cli.Segmenter

    def counted(wg, order):
        built.append(order.sequence)
        return real(wg, order)

    monkeypatch.setattr(cli, "Segmenter", counted)
    report = compare_baselines(RunConfig(input_path=str(LESMIS)), range(2, 11))
    assert len(built) == 8
    assert len({tuple(seq) for seq in built}) >= 3
    for table in ("scores", "ratios"):
        norm = report[table]["norm"]
        assert norm["degree"] == norm["pagerank"]
        assert list(norm["degree"]) == [str(k) for k in range(2, 11)]


def test_compare_errors_match_pinned_bytes(tmp_path, capsys):
    # small weighted graphs with 2-3-vertex sources, whose internal slots
    # can leave the community densities out of line: compare pools every
    # scheme before it scores any, and still stops at the same first
    # error; exit codes and every byte of stdout and stderr are pinned
    rng = random.Random(7)
    codes, digest = [], hashlib.sha256()
    for i in range(40):
        n = rng.randint(5, 10)
        lines = [f"v{u} v{v} {rng.randint(1, 9)}" for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.5]
        labels = sorted({w for line in lines for w in line.split()[:2]},
                        key=lambda label: int(label[1:]))
        source = rng.sample(labels, rng.randint(2, 3))
        path = tmp_path / f"g{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "compare", "--input", str(path), "--source",
                                 ",".join(source), "--k-min", "1", "--k-max", "4")
        assert err == "" if code == 0 else (code == 1 and err.startswith(
            "error: community densities not strictly decreasing at community "))
        codes.append(code)
        digest.update(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}".encode())
    assert "".join(map(str, codes)) == "0100001000010000001001000100100011100100"  # 11 exit 1
    assert digest.hexdigest() == "57ded219531214681361450a4b33362e200af97827dd5ef045b0024a35769ea5"


def test_compare_and_hops_runs_match_pinned_bytes(tmp_path, capsys):
    # single-source edge lists, weighted and unit, every third one with a
    # second component the hop levels cannot reach; compare's k ranges run
    # inside and past the block count, so Infinity scores and null ratios
    # show, and `run --order hops` prints the hop order itself.  Exit
    # codes and every byte of stdout and stderr are pinned
    rng = random.Random(21)
    codes, digest, text = [], hashlib.sha256(), ""
    for i in range(30):
        n, density = rng.randint(4, 11), rng.choice((0.2, 0.5))
        parts = [(0, n)] + ([(n, rng.randint(2, 5))] if i % 3 == 2 else [])
        lines = [f"v{lo + u} v{lo + v}" + (f" {rng.randint(1, 9)}" if i % 2 else "")
                 for lo, size in parts for u in range(size)
                 for v in range(u + 1, size) if rng.random() < density or v == u + 1]
        path = tmp_path / f"g{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        common = ["--input", str(path)]
        if i % 4:
            common += ["--source", f"v{rng.randrange(n)}"]
        if i % 5 == 0:
            common.append("--weighted-walk")
        for argv in (["compare", *common, "--k-min", str(rng.randint(1, 3)),
                      "--k-max", str(rng.randint(3, 14))],
                     ["run", *common, "-k", str(rng.randint(1, 4)), "--order", "hops",
                      "--format", rng.choice(("json", "tsv"))]):
            code, out, err = run_cli(capsys, *argv)
            codes.append(code)
            text += out
            digest.update(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}".encode())
    assert "Infinity" in text and "null" in text
    assert "".join(map(str, codes)) == "000000000000000000000000000000000000000000020000000200000000"
    assert digest.hexdigest() == "9ca4f9a17b02ffaff214354407d85a4230dd446b25929a24d1d49db529e5511c"


# ------------------------------------------------------------------- verify

def test_verify_subcommand_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--trials", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("prop ")]
    assert len(lines) == 5
    assert all(": OK (" in ln for ln in lines)


def test_verify_subset_of_properties(capsys):
    code, out, _ = run_cli(capsys, "verify", "--props", "pav,dp",
                           "--seed", "1", "--trials", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("prop ")]
    assert [ln.split()[1].rstrip(":") for ln in lines] == ["pav", "dp"]


def test_verify_unknown_property(capsys):
    code, _, err = run_cli(capsys, "verify", "--props", "bogus")
    assert code == 1
    assert "unknown property" in err


def test_verify_reports_known_properties_before_an_unknown_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--props", "pav,bogus",
                             "--seed", "0", "--trials", "5")
    assert code == 1
    assert out == "prop pav: OK (5 sequences, 0 mismatches)\n"
    assert err == "error: unknown property 'bogus'\n"


# --------------------------------------------------------------- exit codes

def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--input", "no/such/file.txt", "-k", "2")
    assert code == 1
    assert "error:" in err


def test_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b 1\nb c -3\n")
    code, _, err = run_cli(capsys, "run", "--input", str(bad), "-k", "2")
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("extra", [["-k", "1"],
                                   ["--source", "a", "--scheme", "original"]])
def test_overflowing_weight_exits_one_without_traceback(tmp_path, extra):
    # two weights of 1e308 overflow a weighted degree (and the segment
    # costs), so the file is rejected at the first one
    big = tmp_path / "big.txt"
    big.write_text("a b 1e308\nb c 1e308\nc d 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nestseg.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "nestseg", "run", "--input",
                           str(big), *extra], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: line 1: weight too large 1e+308 (limit 2**400)\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["--scheme", "original"],
                                  ["--scheme", "original", "--weighted-walk"],
                                  ["--scheme", "sum", "--weighted-walk"]])
def test_weights_at_the_bound_run(tmp_path, capsys, argv):
    # K8 with weights 2**400 and 1 mixed, and a pendant of weight 0:
    # every sum and squared deviation stays finite
    bound = 2.0 ** 400
    lines = [f"{u} {v} {bound if (u + v) % 3 else 1.0!r}\n"
             for u in range(8) for v in range(u + 1, 8)]
    at_bound = tmp_path / "bound.txt"
    at_bound.write_text("".join(lines) + "7 8 0\n")
    code, out, err = run_cli(capsys, "run", "--input", str(at_bound), "-k", "2",
                             *argv)
    assert code == 0, err
    assert math.isfinite(json.loads(out)["total_score"])
    above = tmp_path / "above.txt"
    above.write_text(f"a b {math.nextafter(bound, math.inf)!r}\n")
    code, _, err = run_cli(capsys, "run", "--input", str(above), "-k", "1", *argv)
    assert code == 1
    assert err.startswith("error: line 1: weight too large")


# every kind of weight the loader accepts: 0, subnormals, and up to
# about 2**400
WEIGHT_RANGE = ["0", "5e-324", "1e-310", "1e-5", "0.1", "1", "2", "3", "2e120", "2.58e120"]


@pytest.mark.filterwarnings("error")
def test_weighted_walk_on_a_subnormal_strength_runs(tmp_path, capsys):
    # v2's strength, 1e-310, has no finite reciprocal
    path = tmp_path / "pendant.txt"
    path.write_text("v0 v1 0.1\nv0 v2 1e-310\nv0 v4 3\nv1 v4 2e120\n")
    code, out, err = run_cli(capsys, "run", "--input", str(path), "-k", "2",
                             "--weighted-walk")
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == ["v1", "v4", "v0", "v2"]


@pytest.mark.filterwarnings("error")
def test_seeded_runs_over_the_whole_weight_range_exit_cleanly(tmp_path, capsys):
    # every scheme, order, format and compare, 40% with multi-vertex
    # sources: each run exits 0, 1 or 2 and warns nothing, and each
    # weighted walk sums to 1 and matches the reference walk bit for bit
    rng = random.Random(12)
    codes = collections.Counter()
    for i in range(300):
        n = rng.randint(2, 14)
        lines = [f"v{u} v{v} {rng.choice(WEIGHT_RANGE)}" for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.4 or v == u + 1]
        path = tmp_path / f"g{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        source = rng.sample(range(n), rng.randint(2, min(3, n)) if rng.random() < 0.4 else 1)
        argv = ["--input", str(path), "--source", ",".join(f"v{v}" for v in source),
                "--scheme", rng.choice([s.value for s in WeightingScheme])]
        if rng.random() < 0.6:
            argv.append("--weighted-walk")
        if rng.random() < 0.3:
            argv = ["compare", *argv, "--k-max", str(rng.randint(2, 6))]
        else:
            argv = ["run", *argv, "-k", str(rng.randint(1, 4)), "--order",
                    rng.choice(list(cli.ORDERS)), "--format", rng.choice(list(cli.FORMATS))]
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2) and (code == 0) == (err == ""), (argv, err)
        codes[code] += 1
        if "--weighted-walk" in argv:
            g = load_edge_list_path(str(path))
            S = {g.label_index[f"v{v}"] for v in source}
            pr = personalized_pagerank(g, S, use_edge_weights=True)
            assert abs(pr.p.sum() - 1.0) <= 1e-12
            assert pr.p.tobytes() == reference_pagerank(g, S, use_edge_weights=True).p.tobytes()
    assert codes[0] > 150 and codes[2] > 0


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_walk_tolerance_that_cannot_converge_exits_one(capsys, tol):
    # rejected before the walk runs, not after 10,000 iterations
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH, f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err == f"error: tol must be >= 0, got {float(tol)}\n"


@pytest.mark.parametrize("tol", ["0", "inf"])
def test_walk_tolerance_at_the_ends_of_its_range_runs(capsys, tol):
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH, f"--tol={tol}")
    assert code == 0, err
    assert len(json.loads(out)["communities"]) == 2


def test_unknown_source_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--input", KARATE_PATH,
                           "-k", "2", "--source", "nope")
    assert code == 1
    assert "unknown source" in err


def test_infeasible_k_exits_two_with_maximum(capsys):
    code, _, err = run_cli(capsys, "run", "--input", KARATE_PATH, "-k", "40")
    assert code == 2
    assert "max feasible" in err


def test_complete_graph_ties_exit_two_not_crash(tmp_path, capsys):
    # K7 under the min scheme: every group mean is the same float, so
    # the pooled blocks must collapse to one instead of tying
    k7 = tmp_path / "K7.txt"
    k7.write_text("".join(f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7)))
    code, _, err = run_cli(capsys, "run", "--input", str(k7), "-k", "2",
                           "--scheme", "min")
    assert code == 2, err
    assert "max feasible k=1" in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_empty_edge_list_exits_one(tmp_path, capsys, command):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n\n")
    code, out, err = run_cli(capsys, command, "--input", str(empty))
    assert code == 1
    assert out == ""
    assert err == "error: graph has no vertices\n"


def test_zero_k_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--input", KARATE_PATH, "-k", "0")
    assert code == 1


def test_usage_error_exits_one(capsys):
    code, _, _ = run_cli(capsys, "run", "--input")  # missing value
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "run" in out and "compare" in out


@pytest.mark.parametrize("module", ["nestseg", "nestseg.cli"])
def test_python_dash_m_runs_without_warnings(module):
    env = dict(os.environ, PYTHONPATH=str(Path(nestseg.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: nestseg" in proc.stdout
    assert "Warning" not in proc.stderr


def test_cli_import_does_not_load_the_oracle():
    env = dict(os.environ, PYTHONPATH=str(Path(nestseg.__file__).parent.parent))
    code = "import sys, nestseg.cli; print('nestseg.oracle' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_commands_load_neither_scipy_nor_numpy_ma(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(nestseg.__file__).parent.parent))
    out = str(tmp_path / "out.json")
    code = (
        "import sys, nestseg.cli as cli\n"
        f"assert cli.main(['run', '--input', {KARATE_PATH!r}, '--order', 'hops', '--output', {out!r}]) == 0\n"
        f"assert cli.main(['compare', '--input', {KARATE_PATH!r}, '--output', {out!r}]) == 0\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}),"
        " 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False\n"


# ------------------------------------------- every warning as an error

def _gnm_text(n: int, m: int, seed: int, weighted: bool) -> str:
    """m distinct random pairs of 0..n-1, sorted, with weights 1..99 if
    weighted."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return "".join(f"{u} {v} {rng.randint(1, 99)}\n" if weighted else f"{u} {v}\n"
                   for u, v in sorted(pairs))


def _relabel(text: str, label) -> str:
    """The edge list text with every label x written as label(x)."""
    return "".join(" ".join(map(label, line.split())) + "\n" if not line.startswith("#")
                   else line + "\n" for line in text.splitlines())


# name -> text of each probe file
_PROBE_FILES = {
    "karate": lambda: KARATE.read_text(),
    "lesmis": lambda: LESMIS.read_text(),
    # float weights, so the weighted walk's strengths are inexact sums
    "float": lambda: "a b 0.1\nb c 0.2\nc d 0.3\nd a 0.7\na c 0.2\nd e 0.1\ne f 0.3\nf d 0.7\n",
    # a weighted G(300, 1200): the peel raises its cut several times, and
    # compare grows its nine DP tables in one pass
    "gnm": lambda: _gnm_text(300, 1200, 1, weighted=True),
    # a sparse unit-weight G(2000, 3000): the peel visits short rows,
    # pooling merges long runs down to its bottom block, and compare
    # shares one pool between the norm degree and walk-score orders
    "sparse": lambda: _gnm_text(2000, 3000, 2, weighted=False),
    # weighted and disconnected: the hop levels end in an unreachable
    # level, and compare's k range passes the block counts
    "split": lambda: "a b 3\nb c 1\nc d 2\nd a 1\nd e 4\nx y 2\ny z 1\n",
    # a star whose hub has 100 neighbours: the walk adds its row, longer
    # than 64 entries, with np.bincount
    "star": lambda: ("".join(f"hub v{i} {1 + i % 7}\n" for i in range(100))
                     + "".join(f"v{i} v{i + 1} 0.{i % 9 + 1}\n" for i in range(0, 100, 3))),
    # a SNAP-style file: a '#' header, a blank line, tab separators and one
    # line ended by a lone \r
    "snap": lambda: ("# Undirected graph: toy\n# Nodes: 6 Edges: 8\n\n1\t2\n1\t3\r2\t3\n"
                     "3\t4\n4\t5\n4\t6\n5\t6\n2\t5\n"),
    # U+00A0 separators, and lines of 2 and of 3 columns
    "nbsp": lambda: "a\u00a0b 2\nb\u00a0c\nc d\u00a03\nd a\na c 0.5\nd\u00a0e\ne f 1\nf d\n",
    # karate with non-ASCII labels: two-byte, and three-byte CJK
    "karate-e": lambda: _relabel(KARATE.read_text(), lambda x: f"\u00e9{x}"),
    "karate-cjk": lambda: _relabel(KARATE.read_text(), lambda x: f"\u4e2d{x}\u6587"),
}
_RUN_ARGS = ["run -k 3", "run -k 3 --format dot", "run -k 3 --format tsv", "export -k 3",
             "run -k 3 --order degree", "run -k 3 --order pagerank", "run -k 3 --order hops",
             "run -k 3 --scheme original --weighted-walk", "compare"]
CLI_PROBES = [
    *((name, args) for name in ("karate", "lesmis") for args in _RUN_ARGS),
    ("float", "run -k 3 --weighted-walk"), ("float", "compare --weighted-walk"),
    ("gnm", "compare"), ("gnm", "run -k 5 --format dot"),
    ("sparse", "run -k 16 --scheme min"), ("sparse", "compare"),
    ("split", "compare --k-min 1 --k-max 14"), ("split", "run -k 4 --order hops"),
    # k far past every block count: the DP tables stop growing at the
    # largest one, and the rest of the cells are infinite
    ("karate", "compare --k-max 2000"),
    ("star", "run -k 3"), ("star", "run -k 3 --weighted-walk"),
    ("snap", "run -k 3"), ("snap", "compare"), ("nbsp", "run -k 3"), ("nbsp", "compare"),
    *((name, args) for name in ("karate-e", "karate-cjk")
      for args in ("run -k 3", "run -k 3 --format dot", "compare")),
]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("probes")
    for name, text in _PROBE_FILES.items():
        (path / f"{name}.txt").write_text(text(), encoding="utf-8", newline="")
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, args", CLI_PROBES)
def test_cli_probes_run_with_every_warning_an_error(probe_dir, tmp_path, capsys, name, args):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *args.split(), "--input", str(probe_dir / f"{name}.txt"),
                           "--output", str(out))
    assert (code, err) == (0, ""), err
    assert out.stat().st_size > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line_end, blank", [("\r\n", " "), ("\n", "\u3000"),
                                             ("\r", "\t\u00a0")])
def test_karate_copies_give_its_report_byte_for_byte(tmp_path, capsys, line_end, blank):
    # CRLF or lone \r line ends, and U+3000 or tab + U+00A0 separators
    text = KARATE.read_text().replace(" ", blank).replace("\n", line_end)
    (tmp_path / "copy.txt").write_text(text, encoding="utf-8", newline="")
    runs = [run_cli(capsys, "run", "-k", "3", "--input", str(path))
            for path in (KARATE_PATH, tmp_path / "copy.txt")]
    assert runs[0][0] == 0 and runs[0] == runs[1]


def test_dev_mode_run_with_every_warning_an_error():
    # the import itself too, which the in-process probes cannot cover
    env = dict(os.environ, PYTHONPATH=str(Path(nestseg.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "nestseg",
                           "run", "-k", "3", "--input", KARATE_PATH, "--format", "dot"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("graph communities {")


# ------------------------------------------------------------------ library

def test_library_and_cli_defaults_agree(capsys):
    # RunConfig's defaults are the CLI's: a bare command prints what the
    # library returns for a bare RunConfig
    _, _, report = run_pipeline(RunConfig(input_path=KARATE_PATH))
    code, out, err = run_cli(capsys, "run", "--input", KARATE_PATH)
    assert code == 0, err
    assert out == dumps_indented(report) + "\n"
    report = compare_baselines(RunConfig(input_path=str(LESMIS)), range(2, 11))
    code, out, err = run_cli(capsys, "compare", "--input", str(LESMIS))
    assert code == 0, err
    assert out == dumps_indented(report) + "\n"


def _float_weighted_edge_file(rng: random.Random, path: Path) -> None:
    """A random graph on 5-60 vertices, its edges in random order and
    orientation, with weights whose row sums depend on the order they
    are added in: random floats, tenths and thirds."""
    n = rng.randint(5, 60)
    pairs = rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)],
                       rng.randint(n, min(4 * n, n * (n - 1) // 2)))
    draws = (rng.random, lambda: 0.1 * rng.randint(1, 30), lambda: rng.randint(1, 9) / 3)
    lines = []
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"v{a} v{b} {rng.choice(draws)()!r}\n")
    path.write_text("".join(lines))


def test_original_scheme_peels_the_library_graph(tmp_path, capsys):
    # run --scheme original peels the rows of the graph that the library
    # path apply_weighting(g, pr, ORIGINAL) gives, so both peel orders agree
    # even where a row's float sum depends on the order of its neighbors
    rng = random.Random(7)
    path = tmp_path / "float.txt"
    for trial in range(80):
        _float_weighted_edge_file(rng, path)
        g = load_edge_list_path(str(path))
        S = resolve_source(g, None)
        wg = apply_weighting(g, personalized_pagerank(g, S), WeightingScheme.ORIGINAL)
        names = [wg.labels[v] for v in sort_vertices(wg, S).sequence]
        code, out, err = run_cli(capsys, "run", "--input", str(path), "-k", "1",
                                 "--scheme", "original")
        assert code == 0, err
        assert json.loads(out)["order"] == names, trial
        _, _, report = run_pipeline(RunConfig(input_path=str(path), k=1,
                                              scheme=WeightingScheme.ORIGINAL))
        assert out == dumps_indented(report) + "\n"


# nestseg.cli globals that every run calls, and the one each order adds
_RUN_CALLS = ("load_edge_list_path", "resolve_source", "personalized_pagerank",
              "apply_weighting", "discover", "score_sequence")
_ORDER_CALLS = {"peel": "sort_vertices", "degree": "degree_order",
                "pagerank": "pagerank_order", "hops": "hops_levels"}


def test_layer_calls_are_looked_up_by_name(monkeypatch, capsys):
    # perfbench/spans.py times each layer by replacing these module
    # globals; a dispatch that holds the functions themselves bypasses it
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in (*_RUN_CALLS, *_ORDER_CALLS.values()):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for order, builder in _ORDER_CALLS.items():
        calls.clear()
        code, _, err = run_cli(capsys, "run", "--input", KARATE_PATH, "--order", order)
        assert code == 0, err
        assert set(calls) == {*_RUN_CALLS, builder}, order
    # the tracer counts the loaded graph's edges with it
    assert isinstance(Graph.total_edge_count, property)


def test_resolve_source_default_picks_heaviest():
    g = load_edge_list_path(KARATE_PATH)
    assert resolve_source(g, None) == {g.label_index["34"]}
    assert resolve_source(g, ["max-degree"]) == {g.label_index["34"]}
    assert resolve_source(g, ["1", "2"]) == {g.label_index["1"],
                                            g.label_index["2"]}
    with pytest.raises(ValueError):
        resolve_source(g, ["ghost"])


def test_resolve_source_ties_go_to_the_lowest_id():
    # b and c of the path a-b-c-d both have weighted degree 2
    assert resolve_source(path_graph(4), None) == {1}


def test_run_pipeline_reports_match_sequence():
    cfg = RunConfig(input_path=KARATE_PATH, k=3, scheme=WeightingScheme.SUM)
    wg, seq, report = run_pipeline(cfg)
    assert wg.num_vertices == len(seq.order.sequence) == 34
    assert report["breakpoints"] == list(seq.breakpoints)
    assert report["total_score"] == seq.total_score
    assert [c["segment_centroid"] for c in report["communities"]] == \
        list(seq.segment_centroids)


def test_lesmis_runs_end_to_end(capsys):
    code, out, err = run_cli(capsys, "run", "--input", str(LESMIS),
                             "-k", "4", "--scheme", "min")
    assert code == 0, err
    report = json.loads(out)
    assert len(report["order"]) == 77
    dens = [c["community_density"] for c in report["communities"]]
    assert all(a > b for a, b in zip(dens, dens[1:]))
