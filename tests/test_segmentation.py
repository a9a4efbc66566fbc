"""Group points, pooling, dynamic-program segmentation, scoring."""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestseg.graph_core import Graph
from nestseg.ordering import VertexOrder, sort_vertices
from nestseg.oracle import (brute_force_antitonic_fit,
                            brute_force_segmentation, cross_pair_count,
                            exact_segment_cost, exact_segmentation,
                            random_graph, reference_segment_dp)
from nestseg.segmentation import (DensityMonotonicityError,
                                  InfeasibleKError, Segmenter, SegmentTable,
                                  discover, group_arrays, grow_tables,
                                  pool_violators, score_sequence)
from nestseg.weighting import (WeightingScheme, apply_weighting,
                               personalized_pagerank)

from conftest import dyadic_graph, neighbor_weights, path_graph


# ------------------------------------------------------------ group points

def test_group_points_on_path():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    a, x, internal, source_w = group_arrays(g, order)
    assert list(zip(a.tolist(), x.tolist())) == [
        (1, 1.0), (2, 0.5), (3, pytest.approx(1 / 3))]
    assert internal.tolist() == pytest.approx([0.0, 0.5, 2 / 3])
    assert order.sequence[1:] == [1, 2, 3]
    assert source_w == 0.0


def test_group_point_pair_count_grows_with_position():
    g = dyadic_graph(11, 8, connected=True)
    order = sort_vertices(g, {0})
    a, _, _, _ = group_arrays(g, order)
    assert a.tolist() == list(range(1, 8))


def test_group_density_is_weight_over_predecessor_count():
    g = Graph.from_edges(["a", "b", "c"], [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0)])
    order = VertexOrder(sequence=[0, 1, 2], source_size=1)
    _, x, internal, _ = group_arrays(g, order)
    assert x[0] == pytest.approx(3.0)       # b: edge to a over 1
    assert x[1] == pytest.approx(1.5)       # c: 1 + 2 over 2
    # deviation of c's two edge slots (1.0, 2.0) around 1.5
    assert internal[1] == pytest.approx(0.5)


def test_group_sequence_requires_nonempty_prefix():
    g = path_graph(3)
    order = VertexOrder(sequence=[0, 1, 2], source_size=0)
    with pytest.raises(ValueError):
        group_arrays(g, order)


# ------------------------------------------------------------------ pooling

def _pool(points):
    """pool_violators of (weight, value) pairs."""
    return pool_violators([w for w, _ in points], [v for _, v in points])


def test_pool_merges_rise():
    end, weight, mean, sse = _pool([(1, 3.0), (1, 1.0), (1, 2.0)])
    assert end.tolist() == [1, 3]
    assert weight.tolist() == [1.0, 2.0]
    assert mean.tolist() == [3.0, 1.5]
    assert sse[0] == 0.0 and sse[1] == pytest.approx(0.5)
    assert end.dtype == np.int64 and weight.dtype == np.float64


def test_pool_keeps_strict_descent():
    end, _, _, sse = _pool([(1, 3.0), (2, 2.0), (3, 1.0)])
    assert end.tolist() == [1, 2, 3]
    assert sse.tolist() == [0.0, 0.0, 0.0]


def test_pool_merges_equal_means():
    end, _, mean, sse = _pool([(1, 2.0), (1, 2.0)])
    assert end.tolist() == [2]
    assert mean[0] == pytest.approx(2.0)
    assert sse[0] == pytest.approx(0.0)


def test_pool_merges_means_that_tie_after_rounding():
    # equal values whose accumulated sums differ in the last bit still
    # report equal means, so they must end in one block
    m = 0.13043478260831484
    end, _, mean, _ = _pool([(w, m) for w in range(1, 7)])
    assert end.tolist() == [6]
    assert mean.tolist() == [m]


def test_pool_single_block_for_increasing_input():
    end, _, mean, sse = _pool([(1, 1.0), (1, 2.0), (1, 3.0)])
    assert end.tolist() == [3]
    assert mean[0] == pytest.approx(2.0)
    assert sse[0] == pytest.approx(2.0)


def test_pool_rejects_nonpositive_weight():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="point 1: weight must be positive"):
            _pool([(1, 1.0), (bad, 2.0)])


def test_pool_of_no_points_is_empty():
    assert all(len(a) == 0 for a in pool_violators([], []))


@st.composite
def weighted_points(draw, max_len=12):
    n = draw(st.integers(1, max_len))
    return [(draw(st.integers(1, 6)) * 1.0, draw(st.integers(0, 16)) / 4.0)
            for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(weighted_points())
def test_pool_matches_brute_force_fit(points):
    end, weight, mean, sse = _pool(points)
    # strictly decreasing means; ends strictly increase to the last point
    assert all(a > b for a, b in zip(mean, mean[1:]))
    assert (np.diff(end) > 0).all() and end[0] > 0 and end[-1] == len(points)
    # conservation of weight and first moment
    assert weight.sum() == pytest.approx(sum(w for w, _ in points), abs=1e-12)
    assert (weight * mean).sum() == pytest.approx(
        sum(w * x for w, x in points), abs=1e-9)
    # minimal summed deviation, matching the exhaustive fit
    fitted, best_sse = brute_force_antitonic_fit(points)
    assert sse.sum() == pytest.approx(best_sse, abs=1e-9)
    flat = np.repeat(mean, np.diff(end, prepend=0))
    assert flat.tolist() == pytest.approx(fitted, abs=1e-9)


# ------------------------------------------------------- dynamic programming

def _solve(weights, means, k):
    """A fresh table's answer."""
    return SegmentTable(weights, means).solve(k)


@pytest.mark.filterwarnings("error")
def test_table_of_no_blocks_is_infeasible_without_warnings():
    table = SegmentTable(np.array([]), np.array([]))
    for k in (1, 2):
        with pytest.raises(InfeasibleKError) as info:
            table.solve(k)
        assert (info.value.k, info.value.max_feasible) == (k, 0)


def test_dp_trivial_cases():
    means = [3.0, 2.0, 1.0]
    assert _solve([1.0] * 3, means, 3) == ([0, 1, 2, 3], pytest.approx(0.0))
    cuts, cost = _solve([1.0] * 3, means, 1)
    assert cuts == [0, 3]
    assert cost == pytest.approx(2.0)  # sse of {3,2,1} around 2


def test_dp_tie_prefers_earliest_cut():
    cuts, cost = _solve([1.0] * 3, [3.0, 2.0, 1.0], 2)
    assert cost == pytest.approx(0.5)
    assert cuts == [0, 1, 3]  # symmetric optimum; earliest boundary wins


def test_dp_respects_weights():
    weights, means = [1.0, 10.0, 1.0], [4.0, 3.0, 0.0]
    cuts, cost = _solve(weights, means, 2)
    # heavy middle point pairs with whichever side costs less
    _, ref = brute_force_segmentation(list(zip(weights, means)), 2)
    assert cost == pytest.approx(ref, abs=1e-12)


def test_dp_rejects_bad_k():
    with pytest.raises(InfeasibleKError) as exc:
        _solve([1.0, 1.0], [2.0, 1.0], 3)
    assert exc.value.k == 3
    assert exc.value.max_feasible == 2
    assert "max feasible" in str(exc.value)
    with pytest.raises(ValueError):
        _solve([1.0, 1.0], [2.0, 1.0], 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 99999), st.integers(1, 9), st.integers(1, 4))
def test_dp_matches_brute_force(seed, n, k):
    rng = random.Random(seed)
    means = sorted({rng.randint(0, 40) / 4.0 for _ in range(n)}, reverse=True)
    if not means:
        means = [1.0]
    k = min(k, len(means))
    weights = [rng.randint(1, 5) * 1.0 for _ in means]
    cuts, cost = _solve(weights, means, k)
    _, ref_cost = brute_force_segmentation(list(zip(weights, means)), k)
    assert cost == pytest.approx(ref_cost, abs=1e-9)
    assert len(cuts) == k + 1
    assert cuts[0] == 0 and cuts[-1] == len(means)
    # the returned cuts must themselves achieve the optimal cost
    recomputed = 0.0
    for a, b in zip(cuts, cuts[1:]):
        seg = list(zip(weights[a:b], means[a:b]))
        w_tot = sum(w for w, _ in seg)
        mu = sum(w * m for w, m in seg) / w_tot
        recomputed += sum(w * (m - mu) ** 2 for w, m in seg)
    assert recomputed == pytest.approx(ref_cost, abs=1e-9)


def _random_blocks(rng: random.Random, n: int, kind: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(weights, means) of blocks whose means strictly decrease, of one of
    three kinds: evenly spaced with equal weights (exact cost ties
    everywhere), dyadic with integer weights, or random floats over a
    random scale."""
    if kind == 0:
        step, w = rng.choice([0.25, 1.0, 3.0]), rng.choice([0.5, 1.0, 2.0])
        means = [(n - i) * step for i in range(n)]
        weights = [w] * n
    elif kind == 1:
        means = sorted({rng.randint(0, 4 * n) / 4.0 for _ in range(n)}, reverse=True)
        weights = [float(rng.randint(1, 6)) for _ in means]
    else:
        scale = 10.0 ** rng.uniform(-6, 6)
        means = sorted({rng.random() * scale for _ in range(n)}, reverse=True)
        weights = [rng.uniform(0.01, 10.0) for _ in means]
    return np.array(weights), np.array(means)


def test_dp_bit_identical_to_full_scan_reference():
    # divide and conquer visits only a window of predecessors per cell;
    # with the same centred costs it must land on the same first minimum
    rng = random.Random(2024)
    for trial in range(150):
        w, m = _random_blocks(rng, rng.randint(1, 400), kind=trial % 3)
        k = rng.randint(1, min(12, len(w)))
        assert _solve(w, m, k) == reference_segment_dp(w, m, k), trial


def test_dp_bit_identical_to_full_scan_on_real_pools():
    # the pools of real orders: PPR-derived weights in a narrow band,
    # unit and dyadic weights, many exact ties
    rng = random.Random(808)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6, 1.0]),
                         weighted=rng.random() < 0.5, connected=True)
        S = {rng.randrange(n)}
        pr = personalized_pagerank(g, S)
        for scheme in WeightingScheme:
            wg = apply_weighting(g, pr, scheme)
            seg = Segmenter(wg, sort_vertices(wg, S))
            for k in range(1, min(8, len(seg.weight)) + 1):
                assert (SegmentTable(seg.weight, seg.mean).solve(k)
                        == reference_segment_dp(seg.weight, seg.mean, k)), (n, k)
                checked += 1
    assert checked > 500, checked


def test_one_table_answers_every_k():
    rng = random.Random(7)
    for trial in range(30):
        w, m = _random_blocks(rng, rng.randint(1, 200), kind=trial % 3)
        top = min(12, len(w))
        table = SegmentTable(w, m)
        # grow to the top first, then ask the smaller k in a shuffled
        # order; each answer equals a fresh table's
        assert table.solve(top) == _solve(w, m, top)
        ks = list(range(1, top + 1))
        rng.shuffle(ks)
        for k in ks:
            assert table.solve(k) == _solve(w, m, k), (trial, k)
        with pytest.raises(InfeasibleKError):
            table.solve(len(w) + 1)


def test_joint_growth_bit_identical_to_growing_alone():
    # tables laid end to end in one _dp_row call per row: each table's
    # windows are its own shifted by its offset, so every row, and every
    # answer, equals the one the table gets alone
    rng = random.Random(1414)
    short = tall = 0
    for trial in range(30):
        blocks = [_random_blocks(rng, rng.randint(1, rng.choice([12, 400])),
                                 kind=rng.randrange(3))
                  for _ in range(rng.randint(2, 5))]
        if len({len(w) for w, _ in blocks}) == 1:
            blocks.append(_random_blocks(rng, len(blocks[0][0]) % 400 + 1, kind=trial % 3))
        k = rng.randint(1, 12)
        tables = [SegmentTable(w, m) for w, m in blocks]
        # one table already grown past k must be left as it is
        ahead = rng.randrange(len(tables))
        if tables[ahead].n > k:
            tables[ahead].solve(min(k + 3, tables[ahead].n))
            tall += 1
        kept = [(list(t._best), list(t._back)) for t in tables]
        grow_tables(tables, k)
        for t, (w, m), (best, back) in zip(tables, blocks, kept):
            top = max(min(k, t.n) + 1, len(best))
            assert len(t._best) == len(t._back) == top, trial
            assert all(a is b for a, b in zip(t._best, best))
            assert all(a is b for a, b in zip(t._back, back))
            alone = SegmentTable(w, m)
            grow_tables([alone], k)
            for ell in range(min(k, t.n) + 1):
                assert t._best[ell].tobytes() == alone._best[ell].tobytes(), trial
                assert t._back[ell].tobytes() == alone._back[ell].tobytes(), trial
            for j in range(1, min(k, t.n) + 1):
                want = _solve(w, m, j)
                assert want == reference_segment_dp(w, m, j), (trial, j)
                rows = len(t._best)
                assert t.solve(j) == want and len(t._best) == rows, (trial, j)
            if t.n < k:
                short += 1
                with pytest.raises(InfeasibleKError) as exc:
                    t.solve(t.n + 1)
                assert exc.value.max_feasible == t.n
    assert short > 5 and tall > 5, (short, tall)


def test_segmenter_matches_discover_at_every_k():
    for seed in range(12):
        g = dyadic_graph(seed, 14, connected=True)
        order = sort_vertices(g, {0})
        seg = Segmenter(g, order)
        for k in (5, 1, 3, 2, 4):
            try:
                want = discover(g, order, k)
            except InfeasibleKError:
                with pytest.raises(InfeasibleKError):
                    seg.discover(k)
                continue
            assert seg.discover(k) == want


def test_dp_scales_to_fifty_thousand_blocks():
    # the full scan would take hours here; budget in the style of
    # criterion 11, far above the expected fraction of a second
    rng = np.random.default_rng(50_000)
    n, k = 50_000, 8
    means = np.sort(rng.random(n) * 1e-3 + np.linspace(1.0, 0.0, n))[::-1]
    weights = rng.integers(1, 1000, size=n).astype(float)
    start = time.perf_counter()
    cuts, cost = _solve(weights, means, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    assert len(cuts) == k + 1 and cuts[0] == 0 and cuts[-1] == n
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    equal = [round(i * n / k) for i in range(k + 1)]

    def sse(cs):
        total = 0.0
        for a, b in zip(cs, cs[1:]):
            w, m = weights[a:b], means[a:b]
            total += float((w * (m - (w * m).sum() / w.sum()) ** 2).sum())
        return total

    assert cost == pytest.approx(sse(cuts), rel=1e-9)
    assert cost <= sse(equal)


def test_dp_exact_on_narrow_band():
    # means 1e-4 apart by 1e-13..1e-10 with weights ~1e5: uncentred
    # prefix sums cancel to noise and pick far-from-optimal cuts
    rng = random.Random(104)
    for trial in range(20):
        spread = 10.0 ** rng.uniform(-13, -10)
        means = sorted({1e-4 + rng.uniform(-spread, spread) for _ in range(60)},
                       reverse=True)
        weights = [rng.uniform(0.5e5, 2e5) for _ in means]
        points = list(zip(weights, means))
        k = rng.randint(2, 6)
        cuts, _ = _solve(weights, means, k)
        _, best = exact_segmentation(points, k)
        got = exact_segment_cost(points, cuts)
        assert abs(got - best) <= 1e-9 * best, (trial, float(got / best))


# ------------------------------------------------------------------ discover

def test_discover_path_three_communities():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    seq = discover(g, order, 3)
    assert seq.breakpoints == [1, 2, 3, 4]
    assert seq.total_score == pytest.approx(7 / 6)
    assert seq.segment_centroids == pytest.approx([1.0, 0.5, 1 / 3])
    assert seq.community_densities == pytest.approx([1.0, 2 / 3, 0.5])
    assert seq.k == 3
    # community(j) lists the vertices of nested community j in order
    assert seq.community(1) == [0, 1]
    assert seq.community(3) == [0, 1, 2, 3]


def test_discover_path_fewer_communities():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    one = discover(g, order, 1)
    assert one.breakpoints == [1, 4]
    assert one.total_score == pytest.approx(1.5)
    assert one.community_densities == pytest.approx([0.5])
    two = discover(g, order, 2)
    assert two.breakpoints == [1, 2, 4]
    assert two.total_score == pytest.approx(1.2)
    assert two.segment_centroids == pytest.approx([1.0, 0.4])
    assert two.community_densities == pytest.approx([1.0, 0.5])


def test_discover_total_is_sum_of_segment_scores():
    g = dyadic_graph(5, 9, connected=True)
    order = sort_vertices(g, {0})
    seq = discover(g, order, 3)
    assert seq.total_score == pytest.approx(sum(seq.segment_scores), abs=1e-9)
    d = seq.community_densities
    assert all(a > b for a, b in zip(d, d[1:]))


def test_discover_infeasible_k_names_maximum():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    with pytest.raises(InfeasibleKError) as exc:
        discover(g, order, 10)
    assert exc.value.max_feasible == 3


def test_discover_multi_source_density_violation_detected():
    # centroids decrease but cumulative densities rise: the later group
    # is light per-slot yet heavy enough to lift the running average
    g = Graph.from_edges(
        ["s1", "s2", "a", "b"],
        [(0, 2, 10.0), (1, 2, 10.0), (0, 3, 8.0), (1, 3, 8.0), (2, 3, 8.0)])
    order = VertexOrder(sequence=[0, 1, 2, 3], source_size=2)
    with pytest.raises(DensityMonotonicityError, match="community densities"):
        discover(g, order, 2)


def test_sequence_checks_centroids_before_densities():
    # reversed block means make both the centroids and the densities
    # rise; the centroids are reported
    g = path_graph(4)
    seg = Segmenter(g, sort_vertices(g, {0}))
    seg.mean = seg.mean[::-1].copy()
    with pytest.raises(DensityMonotonicityError, match="segment centroids"):
        seg.sequence([0, 1, 2, 3])


def test_single_source_densities_always_decrease():
    # with one source vertex, strictly decreasing centroids force
    # strictly decreasing community densities; spot-check many graphs
    for seed in range(40):
        g = dyadic_graph(seed, 9, connected=True)
        order = sort_vertices(g, {0})
        for k in (1, 2, 3):
            seq = discover(g, order, k)
            d = seq.community_densities
            assert all(x > y for x, y in zip(d, d[1:]))


def test_seeded_fuzz_raises_only_typed_errors():
    # random small graphs, every scheme, k up to 7: each discovery either
    # succeeds or raises one of the two documented errors, never a bare
    # assertion (float ties between pooled blocks used to trip one)
    rng = random.Random(0)
    outcomes = {"ok": 0, "infeasible": 0, "not monotone": 0}
    for _ in range(300):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9, 1.0]),
                         weighted=rng.random() < 0.5, connected=True)
        S = {rng.randrange(n)}
        pr = personalized_pagerank(g, S)
        for scheme in WeightingScheme:
            wg = apply_weighting(g, pr, scheme)
            order = sort_vertices(wg, S)
            try:
                discover(wg, order, rng.randint(1, 7))
                outcomes["ok"] += 1
            except InfeasibleKError:
                outcomes["infeasible"] += 1
            except DensityMonotonicityError:
                outcomes["not monotone"] += 1
    assert sum(outcomes.values()) == 1200
    assert outcomes["ok"] > 900, outcomes


# ------------------------------------------------------------------- scoring

def _direct_objective(g: Graph, order: VertexOrder, breakpoints):
    """Naive re-computation: SSE of each shell's slots around its mean.

    Shell j holds every vertex pair inside community j that is not
    inside community j-1; missing edges count as zero-weight slots.
    """
    total = 0.0
    centroids = []
    densities = []
    prev = set(order.sequence[:order.source_size])
    for j in range(1, len(breakpoints)):
        cur = set(order.sequence[:breakpoints[j]])
        shell_pairs = []
        members = sorted(cur)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if u in prev and v in prev:
                    continue
                shell_pairs.append(neighbor_weights(g, u).get(v, 0.0))
        mean = sum(shell_pairs) / len(shell_pairs)
        total += sum((w - mean) ** 2 for w in shell_pairs)
        centroids.append(mean)
        pairs = cross_pair_count(cur, cur)
        densities.append(
            sum(neighbor_weights(g, u).get(v, 0.0)
                for i, u in enumerate(members) for v in members[i + 1:])
            / pairs)
        prev = cur
    return total, centroids, densities


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 99999), st.integers(3, 9), st.integers(1, 3))
def test_score_sequence_matches_naive_shell_objective(seed, n, k):
    rng = random.Random(seed ^ 0x5EED)
    g = dyadic_graph(seed, n, connected=True)
    order = sort_vertices(g, {0})
    # random ascending breakpoints from 1 (source prefix) to n
    interior = sorted(rng.sample(range(2, n), min(k - 1, n - 2)))
    bps = [1] + interior + [n]
    total, centroids, densities = score_sequence(g, order, bps)
    ref_total, ref_centroids, ref_densities = _direct_objective(g, order, bps)
    assert total == pytest.approx(ref_total, abs=1e-9)
    assert centroids == pytest.approx(ref_centroids, abs=1e-9)
    assert densities == pytest.approx(ref_densities, abs=1e-9)


def test_score_sequence_agrees_with_discover():
    g = dyadic_graph(77, 10, connected=True)
    order = sort_vertices(g, {0})
    seq = discover(g, order, 3)
    total, centroids, _ = score_sequence(g, order, seq.breakpoints)
    assert total == pytest.approx(seq.total_score, abs=1e-9)
    assert centroids == pytest.approx(seq.segment_centroids, abs=1e-9)


def test_discover_is_optimal_among_same_order_cuts():
    # exhaustively try every breakpoint vector on a small instance
    import itertools
    g = dyadic_graph(3, 7, connected=True)
    order = sort_vertices(g, {0})
    seq = discover(g, order, 2)
    best = math.inf
    for cut in itertools.combinations(range(2, 7), 1):
        bps = [1, cut[0], 7]
        total, centroids, _ = score_sequence(g, order, bps)
        if all(a > b for a, b in zip(centroids, centroids[1:])):
            best = min(best, total)
    assert seq.total_score == pytest.approx(best, abs=1e-9)


def test_score_sequence_validates_breakpoints():
    g = path_graph(4)
    order = sort_vertices(g, {0})
    with pytest.raises(ValueError):
        score_sequence(g, order, [0, 2, 4])   # first must equal max(s, 1)
    with pytest.raises(ValueError):
        score_sequence(g, order, [1, 3])      # last must equal n
    with pytest.raises(ValueError):
        score_sequence(g, order, [1, 3, 3, 4])  # strictly ascending
