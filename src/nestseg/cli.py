"""Command-line pipeline: ingest, weight, order, segment, report.

Subcommands: run (one end-to-end discovery), compare (peel order vs
degree/walk-score/hop baselines across k and schemes), verify (random
self-checks against the brute-force oracles), export (DOT rendering).
Exit codes: 0 success, 1 input or configuration error, 2 requested k
infeasible (more segments than strictly decreasing blocks exist).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, GraphFormatError, load_edge_list_path
from .ordering import (VertexOrder, degree_order, hops_levels, pagerank_order,
                       sort_vertices)
from .segmentation import (CommunitySequence, InfeasibleKError, Segmenter,
                           discover, group_arrays, score_sequence)
from .weighting import (PageRankVector, WeightingScheme, apply_weighting,
                        personalized_pagerank)

MAX_DEGREE = "max-degree"
ORDER_KINDS = ("peel", "degree", "pagerank", "hops")
COMPARE_SCHEMES = (WeightingScheme.NORM, WeightingScheme.SUM, WeightingScheme.MIN)


@dataclass
class RunConfig:
    """Everything one end-to-end run needs."""
    input_path: str
    source: list[str] | None = None  # None = highest-degree vertex
    k: int = 2
    scheme: WeightingScheme = WeightingScheme.SUM
    order_kind: str = "peel"
    restart: float = 0.1
    tol: float = 1e-10
    weighted_walk: bool = False
    output_format: str = "json"
    output_path: str | None = None


def resolve_source(g: Graph, source: list[str] | None) -> set[int]:
    """Map configured source labels to ids; default to the heaviest vertex."""
    if g.num_vertices == 0:
        raise ValueError("graph has no vertices")
    if source is None or source == [MAX_DEGREE]:
        wdeg = g.weighted_degrees()
        # max returns the first maximum, the lowest id among ties
        return {max(range(g.num_vertices), key=wdeg.__getitem__)}
    ids = set()
    for label in source:
        if label not in g.label_index:
            raise ValueError(f"unknown source label {label!r}")
        ids.add(g.label_index[label])
    return ids


def _build_order(kind: str, wg: Graph, S: set[int],
                 pr: PageRankVector | None) -> VertexOrder:
    if kind == "peel":
        return sort_vertices(wg, S)
    if kind == "degree":
        return degree_order(wg, S)
    if kind == "pagerank":
        assert pr is not None
        return pagerank_order(wg, S, pr)
    if kind == "hops":
        return _hops_order(wg, S)[0]
    raise ValueError(f"unknown order kind {kind!r}")


def _hops_order(wg: Graph, S: set[int]) -> tuple[VertexOrder, list[int]]:
    """Breadth-first levels from S, each in ascending id, and the level ends."""
    levels = hops_levels(wg, S)
    seq = [v for level in levels for v in sorted(level)]
    ends = list(itertools.accumulate(len(level) for level in levels))
    return VertexOrder(sequence=seq, source_size=len(S)), ends


def _weighted_graph(g: Graph, S: set[int], cfg: RunConfig
                    ) -> tuple[Graph, PageRankVector | None]:
    needs_pr = (cfg.scheme is not WeightingScheme.ORIGINAL
                or cfg.order_kind == "pagerank")
    pr = None
    if needs_pr:
        pr = personalized_pagerank(g, S, restart=cfg.restart,
                                   use_edge_weights=cfg.weighted_walk,
                                   tol=cfg.tol)
    wg = apply_weighting(g, pr, cfg.scheme) if cfg.scheme is not WeightingScheme.ORIGINAL else g
    return wg, pr


def run_pipeline(cfg: RunConfig) -> tuple[Graph, CommunitySequence, dict]:
    """Load, weight, order, segment; return the re-weighted graph the
    sequence lives on, the sequence and its JSON report.

    The report's total_score is re-validated against direct scoring of
    the breakpoints before being returned.
    """
    if cfg.k < 1:
        raise ValueError(f"k must be >= 1, got {cfg.k}")
    if cfg.order_kind not in ORDER_KINDS:
        raise ValueError(f"unknown order {cfg.order_kind!r}")
    g = load_edge_list_path(cfg.input_path)
    S = resolve_source(g, cfg.source)
    wg, pr = _weighted_graph(g, S, cfg)
    del g  # free the unweighted CSR and labels before the peel
    order = _build_order(cfg.order_kind, wg, S, pr)
    seq = discover(wg, order, cfg.k)

    direct_total, _, _ = score_sequence(wg, order, seq.breakpoints)
    if abs(direct_total - seq.total_score) > 1e-9 * max(1.0, abs(direct_total)):
        raise RuntimeError(
            f"internal score mismatch: {seq.total_score} vs direct {direct_total}")

    labels = wg.labels
    report = {
        "order": [labels[v] for v in order.sequence],
        "breakpoints": list(seq.breakpoints),
        "communities": [
            {
                "vertices": [labels[v] for v in seq.community(j + 1)],
                "community_density": seq.community_densities[j],
                "segment_centroid": seq.segment_centroids[j],
                "segment_score": seq.segment_scores[j],
            }
            for j in range(seq.k)
        ],
        "total_score": seq.total_score,
    }
    return wg, seq, report


def _segment_ids(seq: CommunitySequence) -> list[int]:
    """Segment (1..k) of each order position; 0 for the source prefix."""
    positions = np.arange(len(seq.order.sequence))
    return np.searchsorted(seq.breakpoints, positions, side="right").tolist()


def export_dot(g: Graph, seq: CommunitySequence) -> str:
    """Render the sequence as a DOT graph, one fill color per community.

    Color index 0 is the source prefix (drawn double-circled); indices
    1..k are the segments.  Node and edge ordering follow the vertex
    order, so output is stable.
    """
    palette = ["#c0c0c0", "#e6550d", "#fdae6b", "#fee6ce", "#9ecae1",
               "#3182bd", "#a1d99b", "#31a354", "#bcbddc", "#756bb1",
               "#dadaeb", "#636363"]
    order = seq.order
    s = order.source_size
    segment = _segment_ids(seq)
    lines = ["graph communities {", "  node [style=filled];"]
    for pos, v in enumerate(order.sequence):
        color = palette[segment[pos] % len(palette)]
        extra = ", peripheries=2" if pos < s else ""
        lines.append(f'  "{g.labels[v]}" [fillcolor="{color}"{extra}];')
    pos_of = order.positions()
    us, vs, _ = g.edge_arrays()
    edges = sorted(((min(pos_of[u], pos_of[v]), max(pos_of[u], pos_of[v]))
                    for u, v in zip(us.tolist(), vs.tolist())))
    for pu, pv in edges:
        a = g.labels[order.sequence[pu]]
        b = g.labels[order.sequence[pv]]
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_tsv(g: Graph, seq: CommunitySequence) -> str:
    """Tab-separated group-point sequence for external plotting."""
    a, x, internal, _ = group_arrays(g, seq.order)
    order = seq.order
    segment = _segment_ids(seq)
    rows = ["position\tvertex\tpair_count\tdensity\tinternal_sse\tsegment"]
    for pos, (count, density, sse) in enumerate(
            zip(a.tolist(), x.tolist(), internal.tolist()), start=order.source_size):
        rows.append(f"{pos + 1}\t{g.labels[order.sequence[pos]]}\t{count}"
                    f"\t{density!r}\t{sse!r}\t{segment[pos]}")
    return "\n".join(rows) + "\n"


def compare_baselines(cfg: RunConfig, k_range: range) -> dict:
    """Score the peel order against degree and walk-score orders.

    For every scheme and k, each order is segmented optimally on the
    same re-weighted graph; a cell is a win when the peel score is at
    most both baseline scores.  Ratios are normalized by the same order
    and scheme's k=1 score.  The fixed hop-level sequence is scored
    once per scheme at its own community count.  Infeasible cells (k
    exceeding an order's block count) score infinity.  Each (scheme,
    order) is pooled once and its one DP table answers every k.

    Returns the JSON report: scores[scheme][order][k], ratios alike,
    wins[scheme][k], hops[scheme] (the hop sequence's score and the
    peel score at its k), the cell and win counts and the win rate.
    """
    g = load_edge_list_path(cfg.input_path)
    S = resolve_source(g, cfg.source)
    pr = personalized_pagerank(g, S, restart=cfg.restart,
                               use_edge_weights=cfg.weighted_walk, tol=cfg.tol)
    report = {"k_values": list(k_range),
              "schemes": [s.value for s in COMPARE_SCHEMES],
              "scores": {}, "ratios": {}, "wins": {}, "hops": {},
              "cells": 0, "wins_both": 0}
    for scheme in COMPARE_SCHEMES:
        wg = apply_weighting(g, pr, scheme)
        orders = {name: _build_order(name, wg, S, pr)
                  for name in ("peel", "degree", "pagerank")}
        scores: dict[str, dict[str, float]] = {name: {} for name in orders}
        ratios: dict[str, dict[str, float | None]] = {name: {} for name in orders}
        wins: dict[str, bool] = {}
        segmenters = {name: Segmenter(wg, order) for name, order in orders.items()}
        base = {name: seg.discover(1).total_score for name, seg in segmenters.items()}
        for k in k_range:
            cell: dict[str, float] = {}
            for name, seg in segmenters.items():
                try:
                    total = seg.discover(k).total_score
                except InfeasibleKError:
                    total = math.inf
                cell[name] = total
                scores[name][str(k)] = total
                ratios[name][str(k)] = (total / base[name]
                                        if base[name] > 0 and math.isfinite(total)
                                        else None)
            win = cell["peel"] <= cell["degree"] and cell["peel"] <= cell["pagerank"]
            wins[str(k)] = bool(win)
            report["cells"] += 1
            report["wins_both"] += int(win)
        report["scores"][scheme.value] = scores
        report["ratios"][scheme.value] = ratios
        report["wins"][scheme.value] = wins

        hops_order, bps = _hops_order(wg, S)
        if len(bps) > 1:
            hops_score, _, _ = score_sequence(wg, hops_order, bps)
            k_hops = len(bps) - 1
            try:
                peel_at = segmenters["peel"].discover(k_hops).total_score
            except InfeasibleKError:
                peel_at = math.inf
            report["hops"][scheme.value] = {
                "k": k_hops,
                "hops_score": hops_score,
                "peel_score": peel_at,
            }
    cells = report["cells"]
    report["win_rate"] = report["wins_both"] / cells if cells else 0.0
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    wg, seq, report = run_pipeline(cfg)
    if cfg.output_format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif cfg.output_format == "dot":
        text = export_dot(wg, seq)
    elif cfg.output_format == "tsv":
        text = export_tsv(wg, seq)
    else:
        raise ValueError(f"unknown format {cfg.output_format!r}")
    _emit(text, cfg.output_path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError(f"bad k range {args.k_min}..{args.k_max}")
    report = compare_baselines(cfg, range(args.k_min, args.k_max + 1))
    _emit(json.dumps(report, indent=2) + "\n", cfg.output_path)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    args.format = "dot"
    return _cmd_run(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle  # test-scale machinery: load it only to verify
    props = args.props.split(",") if args.props else oracle.VERIFY_PROPS
    failed = False
    for prop, passed, summary in oracle.run_checks(random.Random(args.seed),
                                                   args.trials, props):
        print(f"prop {prop}: {'OK' if passed else 'FAIL'} ({summary})")
        failed = failed or not passed
    return 1 if failed else 0


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    source = None
    if getattr(args, "source", None):
        source = (None if args.source == MAX_DEGREE
                  else [s for s in args.source.split(",") if s])
    return RunConfig(
        input_path=args.input,
        source=source,
        k=getattr(args, "k", 2),
        scheme=WeightingScheme.parse(getattr(args, "scheme", "sum")),
        order_kind=getattr(args, "order", "peel"),
        restart=args.restart,
        tol=args.tol,
        weighted_walk=args.weighted_walk,
        output_format=getattr(args, "format", "json"),
        output_path=getattr(args, "output", None),
    )


def _add_common(p: argparse.ArgumentParser, with_k: bool = True):
    p.add_argument("--input", required=True, help="edge list file")
    p.add_argument("--source", default=MAX_DEGREE,
                   help=f"comma-separated source labels, or '{MAX_DEGREE}'")
    if with_k:
        p.add_argument("-k", type=int, default=2, help="number of communities")
        p.add_argument("--scheme", default="sum",
                       choices=[s.value for s in WeightingScheme])
        p.add_argument("--order", default="peel", choices=ORDER_KINDS)
    p.add_argument("--restart", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--weighted-walk", action="store_true",
                   help="walk steps proportional to input edge weights")
    p.add_argument("--output", default=None, help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestseg",
        description="Discover nested communities of strictly decreasing density.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one end-to-end discovery")
    _add_common(p_run)
    p_run.add_argument("--format", default="json", choices=["json", "dot", "tsv"])
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="peel vs baseline orders")
    _add_common(p_cmp, with_k=False)
    p_cmp.add_argument("--k-min", type=int, default=2)
    p_cmp.add_argument("--k-max", type=int, default=10)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="randomized oracle self-checks")
    p_ver.add_argument("--props", default="",
                       help="comma-separated: density,left,right,pav,dp")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.set_defaults(func=_cmd_verify)

    p_exp = sub.add_parser("export", help="DOT rendering of a run")
    _add_common(p_exp)
    p_exp.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; fold its usage errors into code 1
        # so code 2 stays reserved for infeasible k.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except InfeasibleKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
