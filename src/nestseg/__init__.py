"""Nested community sequences in weighted graphs.

Pipeline: load a graph, re-weight its edges from a personalized
random-walk distribution, order vertices by iterative minimum-weighted-
degree peeling, then cut the order into k nested communities of strictly
decreasing density by pooling plus dynamic programming.
"""

from .graph_core import (
    Graph,
    GraphFormatError,
    VertexSet,
    load_edge_list,
    load_edge_list_path,
)
from .weighting import (
    PageRankVector,
    WeightingScheme,
    apply_weighting,
    personalized_pagerank,
)
from .ordering import (
    VertexOrder,
    degree_order,
    hops_levels,
    pagerank_order,
    sort_vertices,
)
from .segmentation import (
    CommunitySequence,
    DensityMonotonicityError,
    InfeasibleKError,
    SegmentTable,
    Segmenter,
    discover,
    group_arrays,
    pool_violators,
    score_sequence,
)

__all__ = [
    "Graph", "GraphFormatError", "VertexSet", "load_edge_list",
    "load_edge_list_path",
    "PageRankVector", "WeightingScheme", "apply_weighting",
    "personalized_pagerank",
    "VertexOrder", "degree_order", "hops_levels", "pagerank_order",
    "sort_vertices",
    "CommunitySequence", "DensityMonotonicityError", "InfeasibleKError",
    "SegmentTable", "Segmenter", "discover", "group_arrays",
    "pool_violators", "score_sequence",
]

__version__ = "0.1.0"
