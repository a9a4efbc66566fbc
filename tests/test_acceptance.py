"""Acceptance gate: eleven binding criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
line per criterion.  Every tolerance is pinned here; the brute-force
oracles in nestseg.oracle are the reference implementations.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from nestseg.graph_core import Graph, load_edge_list_path
from nestseg.ordering import (VertexOrder, degree_order, hops_levels,
                              pagerank_order, sort_vertices)
from nestseg.oracle import (brute_force_antitonic_fit,
                            brute_force_densest_subgraph,
                            brute_force_segmentation, check_peel_lower_bound,
                            check_peel_upper_bound, check_prop_density,
                            densest_prefix, graph_from_edges, induced_density,
                            random_graph, reference_weighted_degrees,
                            sample_peel_bounds)
from nestseg.segmentation import (InfeasibleKError, SegmentTable, Segmenter,
                                  discover, group_arrays, pool_violators,
                                  score_sequence)
from nestseg.weighting import (WeightingScheme, apply_weighting,
                               personalized_pagerank)

from conftest import KARATE, LESMIS, neighbor_weights


def report(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} — {label}: {detail}", flush=True)
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------- criterion 1

def test_criterion_01_dp_matches_exhaustive_segmentation():
    rng = random.Random(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 12)
        means = sorted({rng.randint(0, 60) / 4.0 for _ in range(n)},
                       reverse=True) or [1.0]
        weights = [float(rng.randint(1, 9)) for _ in means]
        # block-internal sse never reaches the DP; its draws stay so the
        # instances stay the same
        for _ in means:
            rng.randint(0, 8)
        k = rng.randint(1, min(4, len(means)))
        _, cost = SegmentTable(np.array(weights), np.array(means)).solve(k)
        # between-block cost only
        _, ref = brute_force_segmentation(list(zip(weights, means)), k)
        worst = max(worst, abs(cost - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "dp segmentation equals exhaustive optimum",
           ok, f"200 instances, worst |Δcost| {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_pooling_matches_exhaustive_fit():
    rng = random.Random(202)
    worst = 0.0
    exact_weight = exact_moment = exact_means = True
    for _ in range(200):
        n = rng.randint(1, 12)
        pts = [(float(rng.randint(1, 6)), rng.randint(0, 16) / 4.0)
               for _ in range(n)]
        end, weight, mean, sse = pool_violators([w for w, _ in pts],
                                                [x for _, x in pts])
        _, ref = brute_force_antitonic_fit(pts)
        worst = max(worst, abs(sum(sse.tolist()) - ref))
        # dyadic inputs make every sum exact, so conservation is equality
        if sum(weight.tolist()) != sum(w for w, _ in pts):
            exact_weight = False
        spans = list(zip([0] + end[:-1].tolist(), end.tolist()))
        span_moments = [sum(w * x for w, x in pts[a:b]) for a, b in spans]
        if sum(span_moments) != sum(w * x for w, x in pts):
            exact_moment = False
        for (a, b), m, moment in zip(spans, mean.tolist(), span_moments):
            if m != moment / sum(w for w, _ in pts[a:b]):
                exact_means = False
    ok = worst <= 1e-9 and exact_weight and exact_moment and exact_means
    report(2, "adjacent-violator pooling equals exhaustive fit",
           ok, f"200 sequences, worst |ΔSSE| {worst:.2e}, weight/moment/mean "
               f"conservation exact={exact_weight}/{exact_moment}/{exact_means}")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_graph_score_equals_point_space_score():
    rng = random.Random(303)
    worst_rel = 0.0
    checked = 0
    while checked < 500:
        n = rng.randint(3, 20)
        g = random_graph(random.Random(rng.randrange(1 << 30)), n,
                         rng.uniform(0.2, 0.8), weighted=True)
        seq = list(range(n))
        rng.shuffle(seq)
        s = rng.randint(1, n - 1)
        order = VertexOrder(sequence=seq, source_size=s)
        k = rng.randint(1, min(4, n - s))
        interior = sorted(rng.sample(range(s + 1, n), k - 1))
        bps = [s] + interior + [n]
        total, _, _ = score_sequence(g, order, bps)

        counts, dens, internal, _ = group_arrays(g, order)
        pts = list(zip(counts.tolist(), dens.tolist()))
        alt = sum(internal.tolist())
        for a, b in zip(bps, bps[1:]):
            span = pts[a - s:b - s]
            w_tot = sum(c for c, _ in span)
            mu = sum(c * d for c, d in span) / w_tot
            alt += sum(c * (d - mu) ** 2 for c, d in span)
        err = abs(total - alt) / max(1.0, abs(total), abs(alt))
        worst_rel = max(worst_rel, err)
        checked += 1
    ok = worst_rel <= 1e-9
    report(3, "graph-space score equals grouped point-space score",
           ok, f"{checked} random (graph, order, cuts), worst rel err {worst_rel:.2e}")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_discovered_sequences_always_monotone():
    rng = random.Random(404)
    checked = 0
    violations = 0
    while checked < 1000:
        n = rng.randint(3, 28)
        g = random_graph(random.Random(rng.randrange(1 << 30)), n,
                         rng.uniform(0.15, 0.9), weighted=rng.random() < 0.7,
                         connected=rng.random() < 0.5)
        source = rng.randrange(n)
        order = sort_vertices(g, {source})
        k = rng.randint(1, 4)
        try:
            seq = discover(g, order, k)
        except InfeasibleKError:
            continue
        checked += 1
        c = seq.segment_centroids
        d = seq.community_densities
        if not all(x > y for x, y in zip(c, c[1:])):
            violations += 1
        if not all(x > y for x, y in zip(d, d[1:])):
            violations += 1
    ok = violations == 0
    report(4, "discovered centroids and densities strictly decrease",
           ok, f"{checked} instances, {violations} violations")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_optimum_attaches_nothing_denser_than_removals():
    rng = random.Random(505)
    graphs = 0
    feasible = 0
    checked = 0
    violations = 0
    while graphs < 100:
        n = rng.randint(4, 7)
        g = random_graph(random.Random(rng.randrange(1 << 30)), n,
                         rng.uniform(0.3, 0.9), weighted=True)
        graphs += 1
        rep = check_prop_density(g, {rng.randrange(n)}, 2, tol=1e-12)
        if not rep["feasible"]:
            continue
        feasible += 1
        checked += rep["checked"]
        violations += rep["violations"]
    ok = violations == 0 and feasible > 0
    report(5, "exhaustive optimum admits no denser attachment than removal",
           ok, f"100 graphs, {feasible} feasible, {checked} subset pairs, "
               f"{violations} violations")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_peel_prefix_density_bounds_hold():
    rng = random.Random(606)
    exhaustive = sampled = 0
    low_checked = high_checked = skipped = 0
    violations = 0
    for _ in range(200):
        n = rng.randint(4, 20)
        g = random_graph(random.Random(rng.randrange(1 << 30)), n,
                         rng.uniform(0.2, 0.8), weighted=True)
        order = sort_vertices(g, set())
        if n <= 12:
            low = check_peel_lower_bound(g, order, tol=1e-12)
            high = check_peel_upper_bound(g, order, tol=1e-12)
            violations += low["violations"] + high["violations"]
            low_checked += low["checked"]
            high_checked += high["checked"]
            skipped += high["skipped"]
            exhaustive += 1
        else:
            rep = sample_peel_bounds(g, order, rng, samples=50, tol=1e-12)
            violations += rep["lower_violations"] + rep["upper_violations"]
            low_checked += rep["samples"]
            high_checked += rep["samples"] - rep["skipped"]
            skipped += rep["skipped"]
            sampled += 1
    ok = violations == 0
    report(6, "peel-order lower/upper density bounds",
           ok, f"{exhaustive} exhaustive + {sampled} sampled graphs, "
               f"{low_checked}/{high_checked} lower/upper checks, "
               f"{skipped} zero-attachment skips, {violations} violations")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_densest_prefix_within_factor_two():
    rng = random.Random(707)
    violations = 0
    worst_ratio = math.inf
    for _ in range(100):
        n = rng.randint(3, 10)
        g = random_graph(random.Random(rng.randrange(1 << 30)), n,
                         rng.uniform(0.2, 0.9), weighted=True)
        order = sort_vertices(g, set())
        _, got = densest_prefix(g, order)
        _, best = brute_force_densest_subgraph(g)
        if best > 0:
            worst_ratio = min(worst_ratio, got / best)
        if got < 0.5 * best - 1e-12:
            violations += 1
    ok = violations == 0
    report(7, "densest prefix is a factor-2 approximation",
           ok, f"100 graphs, worst ratio {worst_ratio:.3f}, "
               f"{violations} violations")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_discovery_beats_hop_levels_on_karate():
    g = load_edge_list_path(str(KARATE))
    degrees = reference_weighted_degrees(g)
    source = max(range(g.num_vertices), key=lambda v: (degrees[v], -v))
    S = {source}
    pr = personalized_pagerank(g, S)
    results = []
    ok = True
    for scheme in (WeightingScheme.NORM, WeightingScheme.SUM,
                   WeightingScheme.MIN):
        wg = apply_weighting(g, pr, scheme)
        level = hops_levels(wg, S).tolist()
        k = max(level)
        # by level, ascending id within one; breakpoints after each level
        seq_ids = sorted(range(len(level)), key=lambda v: (level[v], v))
        bps = [sum(1 for d in level if d <= depth) for depth in range(k + 1)]
        hop_order = VertexOrder(sequence=seq_ids, source_size=1)
        hop_score, _, _ = score_sequence(wg, hop_order, bps)
        peel = discover(wg, sort_vertices(wg, S), k).total_score
        results.append(f"{scheme.value}: {peel:.4g} vs hops {hop_score:.4g} (k={k})")
        if peel > hop_score + 1e-9:
            ok = False
    report(8, "peel discovery beats the hop-level baseline on karate",
           ok, "; ".join(results))


# --------------------------------------------------------------- criterion 9

def test_criterion_09_peel_order_win_rate_at_least_80_percent():
    cells = 0
    wins = 0
    for path in (KARATE, LESMIS):
        g = load_edge_list_path(str(path))
        degrees = reference_weighted_degrees(g)
        source = max(range(g.num_vertices), key=lambda v: (degrees[v], -v))
        S = {source}
        pr = personalized_pagerank(g, S)
        for scheme in (WeightingScheme.NORM, WeightingScheme.SUM,
                       WeightingScheme.MIN):
            wg = apply_weighting(g, pr, scheme)
            orders = {
                "peel": sort_vertices(wg, S),
                "degree": degree_order(wg, S),
                "pagerank": pagerank_order(wg, S, pr),
            }
            for k in range(2, 11):
                scores = {}
                for name, order in orders.items():
                    try:
                        scores[name] = discover(wg, order, k).total_score
                    except InfeasibleKError:
                        scores[name] = math.inf
                cells += 1
                if (scores["peel"] <= scores["degree"] + 1e-12
                        and scores["peel"] <= scores["pagerank"] + 1e-12):
                    wins += 1
    rate = wins / cells
    ok = rate >= 0.80
    report(9, "peel order beats both baseline orders in >= 80% of cells",
           ok, f"{wins}/{cells} cells won ({rate:.1%}) across 2 graphs x "
               f"3 schemes x k=2..10")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_walk_distribution_invariants():
    g2 = graph_from_edges(["a", "b"], [(0, 1, 1.0)])
    pr2 = personalized_pagerank(g2, {0}, restart=0.1)
    analytic_ok = abs(pr2.p[0] - 0.1 / 0.19) <= 1e-9

    sums_ok = True
    stationary_ok = True
    tol = 1e-10
    cases = [(load_edge_list_path(str(KARATE)), {33}),
             (load_edge_list_path(str(LESMIS)), {11})]
    rng = random.Random(1010)
    for seed in range(10):
        n = rng.randint(2, 30)
        cases.append((random_graph(random.Random(seed), n, 0.3,
                                   weighted=True, connected=seed % 2 == 0),
                      {rng.randrange(n)}))
    for g, S in cases:
        pr = personalized_pagerank(g, S, tol=tol)
        if abs(pr.p.sum() - 1.0) > 1e-9:
            sums_ok = False
        # one independent application of the step operator must move the
        # converged iterate by at most 2*tol
        moved = _one_step(g, S, pr.p)
        if np.abs(moved - pr.p).sum() > 2 * tol:
            stationary_ok = False
    ok = analytic_ok and sums_ok and stationary_ok
    report(10, "walk distribution sums to one, is stationary, matches closed form",
           ok, f"two-vertex |Δ| {abs(pr2.p[0] - 0.1 / 0.19):.1e}, "
               f"{len(cases)} graphs, sums ok={sums_ok}, "
               f"stationary within 2·tol={stationary_ok}")


def _one_step(g: Graph, S, p: np.ndarray) -> np.ndarray:
    restart = 0.1
    n = g.num_vertices
    r = np.zeros(n)
    r[sorted(S)] = 1.0 / len(S)
    nxt = restart * r
    lost = 0.0
    for v in range(n):
        nbrs = neighbor_weights(g, v)
        if not nbrs:
            lost += p[v]
            continue
        share = (1.0 - restart) * p[v] / len(nbrs)
        for u in nbrs:
            nxt[u] += share
    nxt += (1.0 - restart) * lost * r
    return nxt


# -------------------------------------------------------------- criterion 11

def test_criterion_11_scales_to_a_million_edges():
    n, m = 100_000, 1_000_000
    npr = np.random.default_rng(1111)
    want = int(m * 1.25)
    us = npr.integers(0, n, size=want)
    vs = npr.integers(0, n, size=want)
    mask = us != vs
    lo = np.minimum(us[mask], vs[mask]).astype(np.int64)
    hi = np.maximum(us[mask], vs[mask]).astype(np.int64)
    codes = np.unique(lo * n + hi)
    npr.shuffle(codes)
    codes = codes[:m]
    lo, hi = codes // n, codes % n
    labels = [str(i) for i in range(n)]
    g = graph_from_edges(labels, zip(lo.tolist(), hi.tolist(), [1.0] * m))
    assert g.total_edge_count == m

    start = time.perf_counter()
    degrees = reference_weighted_degrees(g)
    source = max(range(n), key=lambda v: (degrees[v], -v))
    pr = personalized_pagerank(g, {source})
    wg = apply_weighting(g, pr, WeightingScheme.SUM)
    order = sort_vertices(wg, {source})
    seg = Segmenter(wg, order)
    seq = seg.discover(5)
    elapsed = time.perf_counter() - start

    d = seq.community_densities
    ok = elapsed < 30.0 and len(d) == 5 and all(
        a > b for a, b in zip(d, d[1:]))
    report(11, "100k-vertex / 1M-edge pipeline under 30 seconds",
           ok, f"{elapsed:.1f}s total ({pr.iterations} walk iterations, "
               f"{len(seg.end)} pooled blocks, k=5)")
