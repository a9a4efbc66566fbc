"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from nestseg.graph_core import Graph, load_edge_list_path
from nestseg.oracle import graph_from_edges, random_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
KARATE = DATA_DIR / "karate.txt"
LESMIS = DATA_DIR / "lesmis.txt"


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_edge_list_path(str(KARATE))


@pytest.fixture(scope="session")
def lesmis() -> Graph:
    return load_edge_list_path(str(LESMIS))


def edge_list(g: Graph) -> list[tuple[int, int, float]]:
    """Each edge once as (u, v, w) with u < v."""
    us, vs, ws = g.edge_arrays()
    return list(zip(us.tolist(), vs.tolist(), ws.tolist()))


def graph_arrays(g: Graph) -> tuple[list[str], list[tuple[str, bytes]]]:
    """The labels and the dtype and bytes of each of the seven arrays."""
    arrays = (g.indptr, g.indices, g.weights, g.us, g.vs, g.ws, g.slot_edge)
    return g.labels, [(a.dtype.str, a.tobytes()) for a in arrays]


def neighbor_weights(g: Graph, v: int) -> dict[int, float]:
    """Neighbors of v mapped to edge weights, read from v's CSR row."""
    lo, hi = g.indptr[v], g.indptr[v + 1]
    return dict(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()))


def path_graph(n: int = 4) -> Graph:
    labels = [chr(ord("a") + i) for i in range(n)]
    return graph_from_edges(labels, [(i, i + 1, 1.0) for i in range(n - 1)])


def star_graph() -> Graph:
    # hub "c" listed first, then leaves x, y, z
    return graph_from_edges(["c", "x", "y", "z"],
                            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])


def triangle_graph() -> Graph:
    return graph_from_edges(["a", "b", "c"],
                            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def k4_pendant() -> Graph:
    """Complete 4-clique with one extra vertex hanging off vertex 0."""
    edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
    edges.append((0, 4, 1.0))
    return graph_from_edges([str(i) for i in range(5)], edges)


def dyadic_graph(seed: int, n: int, edge_prob: float = 0.5,
                 connected: bool = False) -> Graph:
    """Deterministic random graph whose weights are multiples of 1/4.

    Dyadic weights make every accumulation order exact in binary
    floating point, so conservation checks can assert equality.
    """
    return random_graph(random.Random(seed), n, edge_prob,
                        weighted=True, connected=connected)


def long_row_graphs() -> list[tuple[Graph, set[int]]]:
    """Graphs with rows longer than 64, each with a source set: a
    1,000-leaf star from its hub and from a leaf, hubs of degree 65-500
    over sparse random edges, and a dense graph whose 300 rows all pass
    64; edges in random order and orientation, with random weights, a
    third of them 0 (on the star's hub row too)."""
    rng = np.random.default_rng(11)

    def build(n: int, pairs: np.ndarray) -> Graph:
        pairs = rng.permutation(pairs)
        flip = rng.random(len(pairs)) < 0.5
        w = rng.random(len(pairs)) * (rng.random(len(pairs)) < 2 / 3)
        return Graph([str(v) for v in range(n)], np.where(flip, pairs[:, 1], pairs[:, 0]),
                     np.where(flip, pairs[:, 0], pairs[:, 1]), w)

    star = build(1001, np.column_stack((np.zeros(1000, dtype=np.int64), np.arange(1, 1001))))
    n = 2000
    hubs = [np.column_stack((np.full(d, h), rng.choice(np.arange(20, n), d, replace=False)))
            for h, d in enumerate(rng.integers(65, 501, 20).tolist())]
    sparse = np.sort(rng.integers(0, n, size=(2 * n, 2)), axis=1)
    pairs = np.unique(np.concatenate(hubs + [sparse]), axis=0)
    hubbed = build(n, pairs[pairs[:, 0] != pairs[:, 1]])
    dense = np.argwhere(np.triu(rng.random((300, 300)) < 0.3, 1))
    return [(star, {0}), (star, {417}), (hubbed, {0, 1500}), (build(300, dense), {7})]
