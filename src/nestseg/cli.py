"""Command-line pipeline: ingest, weight, order, segment, report.

Subcommands: run (one end-to-end discovery), compare (peel order vs
degree/walk-score/hop baselines across k and schemes), verify (random
self-checks against the brute-force oracles).  RunConfig holds the
pipeline's options and is the only home of their defaults; the parser
reads them from it.
Exit codes: 0 success, 1 input or configuration error, 2 requested k
infeasible (more segments than strictly decreasing blocks exist).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, fields

import numpy as np

from .graph_core import Graph, GraphFormatError, load_edge_list_path
from .ordering import (VertexOrder, degree_order, degree_ranking, hops_levels,
                       pagerank_order, sort_vertices)
from .segmentation import (CommunitySequence, InfeasibleKError, Segmenter,
                           discover, group_arrays, grow_tables, score_sequence)
from .weighting import (PageRankVector, WeightingScheme, apply_weighting,
                        personalized_pagerank)

COMPARE_SCHEMES = (WeightingScheme.NORM, WeightingScheme.SUM, WeightingScheme.MIN)


@dataclass
class RunConfig:
    """Everything one end-to-end run needs; the CLI's defaults are these."""
    input_path: str
    source: list[str] | None = None  # None = the head of degree_ranking
    k: int = 2
    scheme: WeightingScheme = WeightingScheme.SUM
    order_kind: str = "peel"
    restart: float = 0.1
    tol: float = 1e-10
    weighted_walk: bool = False


def resolve_source(g: Graph, source: list[str] | None) -> set[int]:
    """Map configured source labels to ids; None picks the vertex of
    largest correctly rounded weight sum, the lowest id among ties (the
    head of ``ordering.degree_ranking``, which ``--order degree`` follows),
    and an empty list is an error whatever the scheme and order."""
    if g.num_vertices == 0:
        raise ValueError("graph has no vertices")
    if source is None:
        return {int(degree_ranking(g)[0])}
    if not source:
        raise ValueError("source set must not be empty")
    ids = set()
    for label in source:
        if label not in g.label_index:
            raise ValueError(f"unknown source label {label!r}")
        ids.add(g.label_index[label])
    return ids


def _hops_order(wg: Graph, S: set[int]) -> tuple[VertexOrder, list[int]]:
    """Breadth-first levels from S, each in ascending id, and the level ends."""
    level = hops_levels(wg, S)
    seq = np.argsort(level, kind="stable").tolist()
    ends = np.cumsum(np.bincount(level)).tolist()
    return VertexOrder(sequence=seq, source_size=len(S)), ends


# order kind -> its order of (wg, S, pr); each call looks its layer
# function up by name, so a wrapper set on this module takes effect
ORDERS = {
    "peel": lambda wg, S, pr: sort_vertices(wg, S),
    "degree": lambda wg, S, pr: degree_order(wg, S),
    "pagerank": lambda wg, S, pr: pagerank_order(wg, S, pr),
    "hops": lambda wg, S, pr: _hops_order(wg, S)[0],
}


def _load(cfg: RunConfig, walk: bool
          ) -> tuple[Graph, set[int], PageRankVector | None]:
    """The input graph, its source ids and, if walk, the walk scores."""
    g = load_edge_list_path(cfg.input_path)
    S = resolve_source(g, cfg.source)
    pr = (personalized_pagerank(g, S, restart=cfg.restart,
                                use_edge_weights=cfg.weighted_walk, tol=cfg.tol)
          if walk else None)
    return g, S, pr


def run_pipeline(cfg: RunConfig) -> tuple[Graph, CommunitySequence, dict]:
    """Load, weight, order, segment; return the re-weighted graph the
    sequence lives on, the sequence and its JSON report.

    The report's total_score is re-validated against direct scoring of
    the breakpoints before being returned.
    """
    if cfg.k < 1:
        raise ValueError(f"k must be >= 1, got {cfg.k}")
    if cfg.order_kind not in ORDERS:
        raise ValueError(f"unknown order {cfg.order_kind!r}")
    g, S, pr = _load(cfg, walk=cfg.scheme is not WeightingScheme.ORIGINAL
                     or cfg.order_kind == "pagerank")
    wg = apply_weighting(g, pr, cfg.scheme)
    del g  # free the input weights before the peel
    order = ORDERS[cfg.order_kind](wg, S, pr)
    seq = discover(wg, order, cfg.k)

    direct_total, _, _ = score_sequence(wg, order, seq.breakpoints)
    if abs(direct_total - seq.total_score) > 1e-9 * max(1.0, abs(direct_total)):
        raise RuntimeError(
            f"internal score mismatch: {seq.total_score} vs direct {direct_total}")

    names = list(map(wg.labels.__getitem__, order.sequence))
    report = {
        "order": names,
        "breakpoints": list(seq.breakpoints),
        "communities": [
            {
                "vertices": names[:seq.breakpoints[j + 1]],  # the order prefix
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
    names = [_dot_id(g.labels[v]) for v in order.sequence]  # by position
    lines = ["graph communities {", "  node [style=filled];"]
    for pos, name in enumerate(names):
        color = palette[segment[pos] % len(palette)]
        extra = ", peripheries=2" if pos < s else ""
        lines.append(f'  {name} [fillcolor="{color}"{extra}];')
    # the edges by their (earlier, later) end positions: one sort of the
    # keys earlier * n + later, exact as the graph's duplicate codes are
    us, vs, _ = g.edge_arrays()
    pos_of, n = order.positions(), len(order.sequence)
    a, b = pos_of[us], pos_of[vs]
    lo, hi = np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)
    lines.extend(f"  {names[p]} -- {names[q]};" for p, q in zip(lo.tolist(), hi.tolist()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: str) -> str:
    """``label`` as a DOT double-quoted string, backslashes and quotes
    escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
    exceeding an order's block count) score infinity.  The walk-score
    and hop orders read no weight, so each is built once per run.
    Within a scheme, orders with the same sequence share one pool, one
    DP table and one set of scores (under norm the degree order is
    usually the walk-score order: at the unweighted walk's fixed point
    a non-source vertex's weighted degree is a fixed multiple of its
    walk score); the report still lists every order.  All the distinct
    DP tables grow together, one `_dp_row` call per row; each answers
    every k.  The score table is filled first, k by k, and the ratios,
    wins and counts are read off it.

    Returns the JSON report: scores[scheme][order][k], ratios alike,
    wins[scheme][k], hops[scheme] (the hop sequence's score and the
    peel score at its k), the cell and win counts and the win rate.
    """
    g, S, pr = _load(cfg, walk=True)
    # the walk scores are the input graph's, and the hop levels read
    # only the rows' neighbors
    walk_order = ORDERS["pagerank"](g, S, pr)
    hops_order, bps = _hops_order(g, S)
    # pool every distinct (scheme, order) and score the hop sequence
    # first, one re-weighted graph alive at a time; then grow all the
    # tables at once
    pooled: dict[WeightingScheme, dict[str, Segmenter]] = {}
    hops_scores: dict[WeightingScheme, float] = {}
    for scheme in COMPARE_SCHEMES:
        wg = apply_weighting(g, pr, scheme)
        orders = {name: ORDERS[name](wg, S, pr) for name in ("peel", "degree")}
        orders["pagerank"] = walk_order
        segmenters: dict[str, Segmenter] = {}
        for name, order in orders.items():
            same = [seg for seg in segmenters.values()
                    if seg.order.sequence == order.sequence]
            segmenters[name] = same[0] if same else Segmenter(wg, order)
        pooled[scheme] = segmenters
        hops_scores[scheme] = score_sequence(wg, hops_order, bps)[0]
        del wg
    grow_tables([seg.table for segs in pooled.values() for seg in segs.values()],
                k_range[-1] if k_range else 1)
    report = {"k_values": list(k_range),
              "schemes": [s.value for s in COMPARE_SCHEMES],
              "scores": {}, "ratios": {}, "wins": {}, "hops": {}}
    k_hops = len(bps) - 1
    for scheme, segmenters in pooled.items():
        # one score row per distinct segmenter, normalized by its k=1 score
        rows: dict[Segmenter, dict[str, float]] = {seg: {} for seg in segmenters.values()}
        base = {seg: seg.discover(1).total_score for seg in rows}
        for k in k_range:
            for seg, row in rows.items():
                row[str(k)] = seg.discover(k).total_score if k <= seg.table.n else math.inf
        scores = {name: rows[seg] for name, seg in segmenters.items()}
        peel = segmenters["peel"]
        report["hops"][scheme.value] = {
            "k": k_hops,
            "hops_score": hops_scores[scheme],
            "peel_score": (peel.discover(k_hops).total_score if k_hops <= peel.table.n
                           else math.inf),
        }
        report["scores"][scheme.value] = scores
        report["ratios"][scheme.value] = {
            name: {k: total / base[seg] if base[seg] > 0 and math.isfinite(total) else None
                   for k, total in rows[seg].items()}
            for name, seg in segmenters.items()}
        report["wins"][scheme.value] = {
            k: peel <= scores["degree"][k] and peel <= scores["pagerank"][k]
            for k, peel in scores["peel"].items()}
    wins = [win for row in report["wins"].values() for win in row.values()]
    report.update(cells=len(wins), wins_both=sum(wins),
                  win_rate=sum(wins) / len(wins) if wins else 0.0)
    return report


# --format -> the text of a run from (wg, seq, report); compare's report
# is written in the json format too
FORMATS = {
    "json": lambda wg, seq, report: json.dumps(report, indent=2) + "\n",
    "dot": lambda wg, seq, report: export_dot(wg, seq),
    "tsv": lambda wg, seq, report: export_tsv(wg, seq),
}


def _cmd_run(args: argparse.Namespace) -> int:
    wg, seq, report = run_pipeline(_config_from_args(args))
    _emit(FORMATS[args.format](wg, seq, report), args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError(f"bad k range {args.k_min}..{args.k_max}")
    report = compare_baselines(_config_from_args(args),
                               range(args.k_min, args.k_max + 1))
    _emit(FORMATS["json"](None, None, report), args.output)
    return 0


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
    """The options the subcommand defines; RunConfig's defaults fill in
    the rest."""
    opts = {f.name: getattr(args, f.name) for f in fields(RunConfig)
            if hasattr(args, f.name)}
    if "scheme" in opts:
        opts["scheme"] = WeightingScheme(opts["scheme"])
    return RunConfig(**opts)


def _labels(text: str) -> list[str] | None:
    """--source as its comma-separated labels; empty text keeps the default."""
    return [s for s in text.split(",") if s] if text else RunConfig.source


def _add_common(p: argparse.ArgumentParser, with_k: bool = True):
    """The RunConfig options, each defaulting to its RunConfig field, and
    --output."""
    p.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                   help="edge list file")
    p.add_argument("--source", type=_labels, default=RunConfig.source,
                   help="comma-separated source labels (default: the head of --order degree)")
    if with_k:
        p.add_argument("-k", type=int, default=RunConfig.k, help="number of communities")
        p.add_argument("--scheme", default=RunConfig.scheme.value,
                       choices=[s.value for s in WeightingScheme])
        p.add_argument("--order", dest="order_kind", default=RunConfig.order_kind,
                       choices=ORDERS)
    p.add_argument("--restart", type=float, default=RunConfig.restart)
    p.add_argument("--tol", type=float, default=RunConfig.tol)
    p.add_argument("--weighted-walk", action="store_true",
                   help="walk steps proportional to input edge weights")
    p.add_argument("--output", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestseg",
        description="Discover nested communities of strictly decreasing density.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one end-to-end discovery")
    _add_common(p_run)
    p_run.add_argument("--format", default="json", choices=FORMATS)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="peel vs baseline orders")
    _add_common(p_cmp, with_k=False)
    p_cmp.add_argument("--k-min", type=int, default=2)
    p_cmp.add_argument("--k-max", type=int, default=10)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="randomized oracle self-checks")
    p_ver.add_argument("--props", default="",
                       help="comma-separated: density,left,right,pav,dp,degree")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.set_defaults(func=_cmd_verify)

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
