"""Self-tests of the benchmark: inputs, checker and printed names.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_bytes():
    a = gen.gnm(500, 2000, True, (7, 3, 0)).to_bytes()
    b = gen.gnm(500, 2000, True, (7, 3, 0)).to_bytes()
    other = gen.gnm(500, 2000, True, (8, 3, 0)).to_bytes()
    assert a == b and gen.sha256(a) == gen.sha256(b)
    assert a != other
    assert len(a.splitlines()) == 2000


def _report(tmp_path: Path, name: str, seed: int) -> tuple[dict, check.Graph, run.Workload]:
    """A genuine CLI report on a small instance of a workload."""
    base = run.WORKLOADS[name]
    wl = run.dataclasses.replace(base, n=base.n // 50, m=base.m // 50)
    edges = gen.gnm(wl.n, wl.m, wl.weighted, (seed, wl.stream, 0))
    src = tmp_path / "in.txt"
    out = tmp_path / "out.json"
    src.write_bytes(edges.to_bytes())
    sample = run.spawn("run", wl.argv(str(src), str(out)), timeout=120)
    assert sample.error == ""
    return json.loads(out.read_text()), check.load(edges), wl


def test_checker_accepts_run_report_and_rejects_tampering(tmp_path):
    report, g, wl = _report(tmp_path, "gnm-1m", seed=5)
    wl.check(report, g)

    swapped = copy.deepcopy(report)
    c = swapped["communities"]
    c[0]["community_density"], c[1]["community_density"] = (
        c[1]["community_density"], c[0]["community_density"])
    with pytest.raises(check.CheckError, match="densities"):
        wl.check(swapped, g)

    rescored = copy.deepcopy(report)
    rescored["total_score"] *= 1.001
    with pytest.raises(check.CheckError, match="total_score"):
        wl.check(rescored, g)

    cut = copy.deepcopy(report)
    cut["breakpoints"][1] += 1
    with pytest.raises(check.CheckError):
        wl.check(cut, g)


def _recut(report: dict, g: check.Graph, wl: run.Workload, bps: list[int]) -> dict:
    """The report with other breakpoints and every number re-scored to match."""
    ws = check.reweight(g, check.walk_scores(g, check.default_source(g)), wl.scheme)
    order, index = report["order"], g.index()
    shell = np.zeros(g.n, dtype=np.int64)
    for j in range(len(bps) - 1):
        for label in order[bps[j]:bps[j + 1]]:
            shell[index[label]] = j + 1
    total, scores, mu, dens = check.score(g, ws, shell, np.diff([0] + bps).tolist())
    out = copy.deepcopy(report)
    out["breakpoints"] = bps
    out["total_score"] = total
    for j, c in enumerate(out["communities"]):
        c.update(vertices=order[:bps[j + 1]], community_density=dens[j],
                 segment_centroid=mu[j], segment_score=scores[j])
    return out


def test_checker_rejects_consistent_but_suboptimal_cuts(tmp_path):
    report, g, wl = _report(tmp_path, "dp-sparse", seed=5)
    bps = report["breakpoints"]
    for j, d in itertools.product(range(wl.k - 1, 0, -1), (1, -1)):
        moved = _recut(report, g, wl, bps[:j] + [bps[j] + d] + bps[j + 1:])
        comms = moved["communities"]
        if all(b["segment_centroid"] < a["segment_centroid"]
               and b["community_density"] < a["community_density"]
               for a, b in zip(comms, comms[1:])):
            break
    else:
        pytest.fail("no feasible one-vertex move of a breakpoint")
    with pytest.raises(check.CheckError, match="not optimal"):
        wl.check(moved, g)


def test_checker_optimum_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    a = np.arange(1, 13, dtype=np.float64)
    for _ in range(20):
        x = rng.random(len(a)) ** 2
        for k in (1, 2, 3, 4):
            feasible = []
            for inner in itertools.combinations(range(1, len(a)), k - 1):
                cuts = [0, *inner, len(a)]
                mu = [np.average(x[c0:c1], weights=a[c0:c1])
                      for c0, c1 in zip(cuts, cuts[1:])]
                if all(m1 < m0 for m0, m1 in zip(mu, mu[1:])):
                    feasible.append(check.between_cost(a, x, cuts))
            if len(check.pool(a, x)[0]) < k:   # the CLI refuses such a k
                with pytest.raises(check.CheckError, match="pooled blocks"):
                    check.optimal_cost(a, x, k)
                continue
            assert check.optimal_cost(a, x, k) == pytest.approx(min(feasible), rel=1e-9)


def test_checker_accepts_compare_report_and_rejects_tampering(tmp_path):
    report, g, wl = _report(tmp_path, "compare-sweep", seed=5)
    wl.check(report, g)

    miscounted = dict(report, wins_both=report["wins_both"] + 1)
    with pytest.raises(check.CheckError, match="wins_both"):
        wl.check(miscounted, g)

    hops = copy.deepcopy(report)
    hops["hops"]["sum"]["hops_score"] *= 0.99
    with pytest.raises(check.CheckError, match="hops_score"):
        wl.check(hops, g)


def test_workload_names_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, monkeypatch, capsys):
    base = run.WORKLOADS["dp-sparse"]
    small = run.dataclasses.replace(base, n=base.n // 50, m=base.m // 50)
    monkeypatch.setitem(run.WORKLOADS, "dp-sparse", small)
    assert run.main(["--workload", "dp-sparse", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
