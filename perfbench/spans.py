"""Spans for the traced run, and the per-layer metrics made from them.

The traced child wraps, by name, the layer functions that `nestseg.cli`
calls (and the pooling and DP calls inside `discover`), then runs the
real `main(argv)`.  Each call becomes a span [name, start, end, parent];
spans stay in memory and the child prints them when it ends.  Nothing
inside the program is changed or timed twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT = "cli.command"
EMIT = "cli.emit"
EDGE_ARRAYS = "graph_core.edge_arrays"

# nestseg.cli module globals -> span name
CLI_CALLS = {
    "load_edge_list_path": "graph_core.load",
    "resolve_source": "cli.resolve_source",
    "personalized_pagerank": "weighting.ppr",
    "apply_weighting": "weighting.reweight",
    "sort_vertices": "ordering.peel",
    "degree_order": "ordering.degree",
    "pagerank_order": "ordering.pagerank",
    "hops_levels": "ordering.hops",
    "discover": "segmentation.discover",
    "score_sequence": "segmentation.score",
}
# nestseg.segmentation module globals that discover calls -> span name
SEGMENTATION_CALLS = {
    "pav_pool": "segmentation.pav",
    "segment_dp": "segmentation.dp",
}

# per-layer metric -> unit, in the order they are printed
LAYER_METRICS = {
    "graph_core.load_s": "s",
    "graph_core.edge_arrays_s": "s",
    "graph_core.vertices": "count",
    "graph_core.edges": "count",
    "weighting.ppr_s": "s",
    "weighting.ppr_iterations": "count",
    "weighting.reweight_s": "s",
    "ordering.peel_s": "s",
    "ordering.degree_s": "s",
    "ordering.pagerank_s": "s",
    "ordering.hops_s": "s",
    "segmentation.discover_s": "s",
    "segmentation.pav_s": "s",
    "segmentation.dp_s": "s",
    "segmentation.discover_self_s": "s",
    "segmentation.score_s": "s",
    "segmentation.points": "count",
    "segmentation.blocks": "count",
    "segmentation.pool_ratio": "ratio",
    "segmentation.dp_cells": "count",
    "segmentation.discover_calls": "count",
    "cli.resolve_source_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tracer:
    """Records spans and counters from wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}  # last result of each wrapped call
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn, recording a span per call; count(args, result) adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [start, end]
            self.last[fn.__name__] = result
            if count is not None:
                count(args, result)
            return result
        return traced

    def install(self, cli) -> None:
        """Wrap the layer calls of the imported nestseg.cli module."""
        counts = self.counts

        def loaded(args, g):
            counts["graph_core.vertices"] += g.num_vertices
            counts["graph_core.edges"] += g.total_edge_count

        def walked(args, pr):
            counts["weighting.ppr_iterations"] += pr.iterations

        def pooled(args, blocks):
            counts["segmentation.points"] += blocks[-1].end if blocks else 0
            counts["segmentation.blocks"] += len(blocks)

        def segmented(args, result):
            # candidates the DP loop evaluates: k * sum_{t=1}^{N-k+1} t
            n, k = len(args[0]), args[1]
            counts["segmentation.dp_cells"] += k * (n - k + 1) * (n - k + 2) // 2

        hooks = {"load_edge_list_path": loaded, "personalized_pagerank": walked,
                 "pav_pool": pooled, "segment_dp": segmented}
        # a name the program no longer has is skipped and its metric reads 0
        for attr, name in CLI_CALLS.items():
            if hasattr(cli, attr):
                setattr(cli, attr, self.wrap(name, getattr(cli, attr), hooks.get(attr)))
        seg = sys.modules[cli.__package__ + ".segmentation"]
        for attr, name in SEGMENTATION_CALLS.items():
            if hasattr(seg, attr):
                setattr(seg, attr, self.wrap(name, getattr(seg, attr), hooks.get(attr)))
        if hasattr(cli.Graph, "edge_arrays"):
            cli.Graph.edge_arrays = self.wrap(EDGE_ARRAYS, cli.Graph.edge_arrays)

    def run(self, cli, argv: list[str]) -> int:
        """Call cli.main(argv) under the root span; close it with the emit span.

        The emit span runs from the end of the last stage the command
        called to the end of main: report build, json.dumps and write.
        """
        root = len(self.spans)
        rc = self.wrap(ROOT, cli.main)(argv)
        stages = [s for s in self.spans if s[3] == root]
        begin = stages[-1][2] if stages else self.spans[root][1]
        self.spans.append([EMIT, begin, self.spans[root][2], root])
        return rc

    def probe_baseline_orders(self, cli) -> None:
        """Build the baseline orders a `run` command skips, outside the root.

        Called after a run so that every ordering metric is measured on
        every workload; these spans have no parent and add no coverage.
        """
        if any(s[0] == CLI_CALLS["degree_order"] for s in self.spans):
            return
        wg = self.last.get("apply_weighting")
        S = self.last.get("resolve_source")
        pr = self.last.get("personalized_pagerank")
        if wg is None or S is None or pr is None:
            return
        cli.degree_order(wg, S)
        cli.pagerank_order(wg, S, pr)
        cli.hops_levels(wg, S)


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced call, without the trace.* entries.

    A stage's time leaves out the edge-array builds nested in it: the
    arrays are memoized and built by whichever stage asks first, so they
    are reported on their own as graph_core.edge_arrays_s.  discover_s
    includes its pooling and DP; discover_self_s is what remains (group
    reduction and assembly).  cli.self_s is the root's time outside every
    stage span: argument parsing and the command's own bookkeeping.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * n
    nested_arrays = [0.0] * n
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += dur[i]
            if name == EDGE_ARRAYS:
                nested_arrays[parent] += dur[i]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += dur[i] - nested_arrays[i]
        own[name] += dur[i] - children[i]
        calls[name] += 1
    out = {
        "graph_core.load_s": total["graph_core.load"],
        "graph_core.edge_arrays_s": total[EDGE_ARRAYS],
        "weighting.ppr_s": total["weighting.ppr"],
        "weighting.reweight_s": total["weighting.reweight"],
        "ordering.peel_s": total["ordering.peel"],
        "ordering.degree_s": total["ordering.degree"],
        "ordering.pagerank_s": total["ordering.pagerank"],
        "ordering.hops_s": total["ordering.hops"],
        "segmentation.discover_s": total["segmentation.discover"],
        "segmentation.pav_s": total["segmentation.pav"],
        "segmentation.dp_s": total["segmentation.dp"],
        "segmentation.discover_self_s": own["segmentation.discover"],
        "segmentation.score_s": total["segmentation.score"],
        "segmentation.discover_calls": calls["segmentation.discover"],
        "cli.resolve_source_s": total["cli.resolve_source"],
        "cli.emit_s": total[EMIT],
        "cli.self_s": own[ROOT],
    }
    for name in ("graph_core.vertices", "graph_core.edges", "weighting.ppr_iterations",
                 "segmentation.points", "segmentation.blocks", "segmentation.dp_cells"):
        out[name] = counts.get(name, 0.0)
    out["segmentation.pool_ratio"] = (out["segmentation.blocks"] / out["segmentation.points"]
                                      if out["segmentation.points"] else 0.0)
    return out


def stage_time(spans: list[list]) -> float:
    """Time inside the root's stage spans (the traced part of main)."""
    root = next(i for i, s in enumerate(spans) if s[0] == ROOT)
    return sum(s[2] - s[1] for s in spans if s[3] == root)
