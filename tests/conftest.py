"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from nestseg.graph_core import Graph, load_edge_list_path
from nestseg.oracle import random_graph

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
    """The labels and the dtype and bytes of each of the six arrays."""
    arrays = (g.indptr, g.indices, g.weights, g.us, g.vs, g.ws)
    return g.labels, [(a.dtype.str, a.tobytes()) for a in arrays]


def neighbor_weights(g: Graph, v: int) -> dict[int, float]:
    """Neighbors of v mapped to edge weights, read from v's CSR row."""
    lo, hi = g.indptr[v], g.indptr[v + 1]
    return dict(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()))


def path_graph(n: int = 4) -> Graph:
    labels = [chr(ord("a") + i) for i in range(n)]
    return Graph.from_edges(labels, [(i, i + 1, 1.0) for i in range(n - 1)])


def star_graph() -> Graph:
    # hub "c" listed first, then leaves x, y, z
    return Graph.from_edges(["c", "x", "y", "z"],
                            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])


def triangle_graph() -> Graph:
    return Graph.from_edges(["a", "b", "c"],
                            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def k4_pendant() -> Graph:
    """Complete 4-clique with one extra vertex hanging off vertex 0."""
    edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
    edges.append((0, 4, 1.0))
    return Graph.from_edges([str(i) for i in range(5)], edges)


def dyadic_graph(seed: int, n: int, edge_prob: float = 0.5,
                 connected: bool = False) -> Graph:
    """Deterministic random graph whose weights are multiples of 1/4.

    Dyadic weights make every accumulation order exact in binary
    floating point, so conservation checks can assert equality.
    """
    return random_graph(random.Random(seed), n, edge_prob,
                        weighted=True, connected=connected)
