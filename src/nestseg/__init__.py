"""Nested community sequences in weighted graphs.

Pipeline: load a graph, re-weight its edges from a personalized
random-walk distribution, order vertices by iterative minimum-weighted-
degree peeling, then cut the order into k nested communities of strictly
decreasing density by pooling plus dynamic programming.

The public names are the ones imported below.
"""

import os

# nestseg calls no BLAS routine, yet numpy's OpenBLAS starts a worker
# that spins 2**28 cycles (about 0.13 s on a 2-vCPU Xeon VM) before it
# sleeps, CPU time that overlaps every call; 2**4 cycles puts it to
# sleep at once.  OpenBLAS reads the variable when numpy loads, so this
# must precede the first import of numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

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

__version__ = "0.1.0"
