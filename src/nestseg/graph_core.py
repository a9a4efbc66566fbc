"""Weighted undirected graph in compressed sparse row (CSR) form, and
edge-list parsing."""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable

import numpy as np

# A vertex set is a plain set (or frozenset) of dense integer vertex ids.
VertexSet = AbstractSet[int]


class GraphFormatError(ValueError):
    """Malformed graph input; the message names the line, or the ``edge``
    index when the graph constructor rejected an edge."""

    def __init__(self, reason: str, edge: int | None = None):
        super().__init__(reason if edge is None else f"edge {edge}: {reason}")
        self.reason = reason
        self.edge = edge


class Graph:
    """Immutable weighted undirected simple graph.

    Vertices are dense ids 0..n-1; ``labels[i]`` is the original string
    label of vertex i.  Row v of the CSR arrays lists v's neighbors
    ``indices[indptr[v]:indptr[v+1]]`` with the matching ``weights``.
    ``us``, ``vs``, ``ws`` list each edge once with u < v, in row order.

    Neighbor order is fixed by the construction rule: edge i adds
    a_i -> b_i and then b_i -> a_i, and a stable sort by row keeps that
    order within each row.  The peel, the densest prefix and the DOT
    edge list read rows in this order, so it pins their float sums and
    tie-breaks, hence the reports.

    Weights are finite, nonnegative and at most MAX_WEIGHT (2**400);
    self-loops, unknown ids and duplicate edges (either orientation) are
    rejected at construction.
    """

    __slots__ = ("labels", "label_index", "indptr", "indices", "weights",
                 "us", "vs", "ws")

    def __init__(self, labels: list[str], heads, tails, weights):
        """Edge i joins ids heads[i] and tails[i] with weight weights[i]."""
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        if len(self.label_index) != n:
            raise ValueError("vertex labels must be unique")
        a = np.asarray(heads, dtype=np.int64)
        b = np.asarray(tails, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        _check_edges(self.labels, a, b, w)

        src = np.column_stack((a, b)).reshape(-1)
        # the stable order by row: the keys are distinct, so numpy's default
        # sort, about twice as fast as its stable one here, gives it (and
        # they are exact while n * 2m < 2**63)
        rows = np.argsort(src * len(src) + np.arange(len(src)))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.indices = np.column_stack((b, a)).reshape(-1)[rows]
        self.weights = np.repeat(w, 2)[rows]
        src = src[rows]
        upper = src < self.indices
        self.us, self.vs, self.ws = src[upper], self.indices[upper], self.weights[upper]
        for arr in (self.indptr, self.indices, self.weights, self.us, self.vs, self.ws):
            arr.flags.writeable = False

    @classmethod
    def from_edges(cls, labels: list[str],
                   edges: Iterable[tuple[int, int, float]]) -> "Graph":
        """Build a graph from (u, v, weight) triples, either orientation."""
        heads, tails, weights = tuple(zip(*edges)) or ((), (), ())
        return cls(labels, heads, tails, weights)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def total_edge_count(self) -> int:
        return len(self.us)

    def degree(self, v: int) -> int:
        """Number of actual incident edges (unweighted)."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def weighted_degree(self, v: int) -> float:
        return math.fsum(memoryview(self.weights)[self.indptr[v]:self.indptr[v + 1]])

    def weighted_degrees(self) -> list[float]:
        """weighted_degree(v) of every vertex v, in id order."""
        ptr, wts = self.indptr.tolist(), memoryview(self.weights)
        return [math.fsum(wts[a:b]) for a, b in zip(ptr, ptr[1:])]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the (u, v, w) edge arrays, u < v, in row order."""
        return self.us, self.vs, self.ws


# The largest edge weight accepted.  The duplicate check's int64 codes
# lo * n + hi need n**2 < 2**63, so there are fewer than 2**63 vertex
# pairs, hence fewer than 2**63 edges and pair slots.  With every weight
# at most 2**400, a row's weight sum stays below 2**463, every squared
# slot deviation (slot weight - mean)**2 at most 2**800 and any sum of
# them below 2**863, and the DP's squared sum of slot-weighted centred
# means, (sum of a * c)**2 with sum of a < 2**63 and |c| <= 2**400,
# below 2**926: all finite, well short of the float maximum 2**1024.
MAX_WEIGHT = 2.0 ** 400


def _check_edges(labels: list[str], a: np.ndarray, b: np.ndarray,
                 w: np.ndarray) -> None:
    """Raise GraphFormatError naming the first invalid edge, if any.

    Per edge, the first failing check in this order is reported: id
    range, self-loop, finite weight, nonnegative weight, weight at most
    MAX_WEIGHT, and repeating an earlier edge in either orientation.
    """
    n = len(labels)
    if not len(a) == len(b) == len(w):
        raise ValueError("edge id and weight arrays differ in length")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    codes = lo * n + hi
    repeat = np.zeros(len(a), dtype=bool)
    sorted_codes = np.sort(codes)
    if (sorted_codes[1:] == sorted_codes[:-1]).any():
        # a stable sort puts each repeat after the edge it repeats
        by_code = np.argsort(codes, kind="stable")
        repeat[by_code[1:][codes[by_code[1:]] == codes[by_code[:-1]]]] = True
    checks = [
        ((lo < 0) | (hi >= n), lambda i: f"unknown vertex id in ({a[i]},{b[i]})"),
        (a == b, lambda i: f"self-loop on {labels[a[i]]!r}"),
        (~np.isfinite(w), lambda i: f"non-finite weight {float(w[i])!r}"),
        (w < 0, lambda i: f"negative weight {float(w[i])!r}"),
        (w > MAX_WEIGHT,
         lambda i: f"weight too large {float(w[i])!r} (limit 2**400)"),
        (repeat, lambda i: f"duplicate edge ({labels[a[i]]!r},{labels[b[i]]!r})"),
    ]
    found = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(checks)
             if bad.any()]
    if found:
        i, rank = min(found)
        raise GraphFormatError(checks[rank][1](i), edge=i)


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Parameters
    ----------
    lines:
        Iterable of text lines (an open file works).  Each data line is
        ``u v`` or ``u v weight``; labels are arbitrary non-whitespace
        strings; weight defaults to 1.0.  Lines starting with ``#`` and
        blank lines are ignored.

    Returns
    -------
    Graph with vertices numbered in first-appearance order and edges in
    file order.

    Raises
    ------
    GraphFormatError
        On a self-loop, a duplicate edge (either orientation), a
        negative, non-finite or too large weight, or an unparsable
        line.  The message names the first offending 1-based line number.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    heads: list[int] = []
    tails: list[int] = []
    weights: list[float] = []
    skipped: list[int] = []  # comment and blank line numbers
    unparsable = None
    for line_num, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            skipped.append(line_num)
            continue
        if len(parts) == 2:
            w = 1.0
        elif len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                unparsable = f"line {line_num}: bad weight {parts[2]!r}"
                break
        else:
            unparsable = (f"line {line_num}: expected 'u v' or 'u v weight', "
                          f"got {raw.strip()!r}")
            break
        heads.append(intern(parts[0], len(index)))
        tails.append(intern(parts[1], len(index)))
        weights.append(w)

    try:
        g = Graph(list(index), heads, tails, weights)
    except GraphFormatError as exc:
        # edge i sits on the (i+1)-th line that is not skipped
        line = exc.edge + 1
        for s in skipped:
            if s > line:
                break
            line += 1
        raise GraphFormatError(f"line {line}: {exc.reason}") from None
    if unparsable:
        raise GraphFormatError(unparsable)
    return g


def load_edge_list_path(path: str) -> Graph:
    """``load_edge_list`` on the UTF-8 file at ``path``: the same Graph,
    or the same error.

    A regular file (see ``_parse_regular``) is parsed in one pass over
    its bytes with numpy; any other file goes through ``load_edge_list``
    line by line, which is also the source of every parse-error message.
    """
    with open(path, "rb") as f:
        parsed = _parse_regular(f.read())
    if parsed is None:
        with open(path, "r", encoding="utf-8") as f:
            return load_edge_list(f)
    labels, ids, weights = parsed
    try:
        return Graph(labels, ids[0::2], ids[1::2], weights)
    except GraphFormatError as exc:
        # no line is skipped, so edge i sits on line i + 1
        raise GraphFormatError(f"line {exc.edge + 1}: {exc.reason}") from None


# Bytes of a regular edge-list file: printable ASCII except '#', tab and
# newline.  Outside it, splitting on _BLANK would disagree with str.split
# (which also splits on \x0b, \x0c, \x1c-\x1f, \r and Unicode blanks),
# text mode ends lines at a lone \r, and fixed-width numpy byte strings
# drop trailing NULs.
_REGULAR_BYTES = bytes(b for b in range(0x20, 0x7f) if b != ord("#")) + b"\t\n"
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[ord("\t"), ord("\n"), ord(" ")]] = True


def _gather(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row t is token buf[starts[t]:starts[t] + sizes[t]], NUL-padded to a
    multiple of 8 bytes.  Gathered column by column: bytes.split would
    make a Python object of every token."""
    shortest, longest = int(sizes.min()), int(sizes.max())
    out = np.zeros((len(starts), -(-longest // 8) * 8), dtype=np.uint8)
    for j in range(longest):
        has = slice(None) if j < shortest else np.flatnonzero(sizes > j)
        out[has, j] = buf[starts[has] + j]
    return out


def _parse_regular(data: bytes) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """(labels, ids, weights) of a regular edge-list file, or None.

    Regular: only ``_REGULAR_BYTES``, and every line, the last one with
    or without its newline, holds the same 2 or 3 blank-separated
    tokens, with a weight that numpy's bytes-to-float cast accepts.
    Labels are numbered in first-appearance order and ``ids`` lists
    each edge's two ids in file order, as ``load_edge_list`` does.
    """
    if not data or data.translate(None, _REGULAR_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    blank = _BLANK[buf]
    # token t spans bytes bounds[2t]:bounds[2t + 1]
    bounds = np.flatnonzero(blank[:-1] != blank[1:]) + 1
    if not blank[0]:
        bounds = np.concatenate(([0], bounds))
    if not blank[-1]:
        bounds = np.append(bounds, len(data))
    del blank
    starts, sizes = bounds[0::2], bounds[1::2] - bounds[0::2]
    ends = np.flatnonzero(buf == ord("\n"))  # line ends
    if data[-1] != ord("\n"):
        ends = np.append(ends, len(data))
    cols = int(np.searchsorted(starts, ends[0]))
    # the number of tokens before the end of line i must be cols * (i + 1)
    if cols not in (2, 3) or not np.array_equal(
            np.searchsorted(starts, ends), np.arange(1, len(ends) + 1) * cols):
        return None
    del ends

    starts, sizes = starts.reshape(-1, cols), sizes.reshape(-1, cols)
    if cols == 2:
        weights = np.ones(len(starts))
    else:
        weights = _gather(buf, starts[:, 2], sizes[:, 2])
        try:
            weights = weights.view(f"S{weights.shape[1]}").ravel().astype(np.float64)
        except ValueError:
            return None
    # each label as a row of words; the order of the sort does not matter,
    # only that equal labels end up adjacent
    words = _gather(buf, starts[:, :2].ravel(), sizes[:, :2].ravel()).view(np.uint64)
    del buf, bounds, starts, sizes
    # np.unique(return_index=True) would sort stably, which takes twice as
    # long; a label's first appearance is the least of its positions
    perm = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    words = words[perm]
    new = np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1)))
    groups = np.flatnonzero(new)  # where each label's run starts
    order = np.argsort(np.minimum.reduceat(perm, groups))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    ids = np.empty(len(words), dtype=np.int64)
    ids[perm] = rank[np.cumsum(new) - 1]
    uniq = words[groups[order]].view(f"S{8 * words.shape[1]}").ravel()
    return [lab.decode("ascii") for lab in uniq.tolist()], ids, weights
