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
    label of vertex i.  ``us``, ``vs``, ``ws`` list each edge once with
    u < v, by ascending u and, for equal u, in input order.  Row v of
    the CSR arrays lists v's neighbors ``indices[indptr[v]:indptr[v+1]]``
    with the matching ``weights``; slot s holds edge ``slot_edge[s]``.

    Every graph lays its rows out from that edge list by one rule,
    ``_rows``: edge i adds u_i -> v_i and then v_i -> u_i, and a stable
    sort by row keeps that order within each row.  So row v lists its
    lower neighbors in edge-list order, then its upper neighbors in
    input order.  ``with_weights`` keeps the layout and gathers the new
    weights through ``slot_edge``.  No output depends on the order
    within a row: a vertex's weight sum is added in edge-list order
    (``vertex_sums``) or correctly rounded (``weighted_degrees``), the
    peel takes each edge off a vertex's degree once, the walk sorts each
    row by column, and segmentation and the DOT edge list read the edge
    list.

    Weights are finite, nonnegative and at most MAX_WEIGHT (2**400);
    self-loops, unknown ids and duplicate edges (either orientation) are
    rejected at construction.
    """

    __slots__ = ("labels", "label_index", "indptr", "indices", "weights",
                 "us", "vs", "ws", "slot_edge")

    def __init__(self, labels: list[str], heads, tails, weights):
        """Edge i joins ids heads[i] and tails[i] with weight weights[i]."""
        self.labels = list(labels)
        self.label_index = dict(zip(self.labels, range(len(self.labels))))
        n = len(self.labels)
        if len(self.label_index) != n:
            raise ValueError("vertex labels must be unique")
        a = np.asarray(heads, dtype=np.int64)
        b = np.asarray(tails, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        lo, hi = _check_edges(self.labels, a, b, w)
        by_lo = _by_row(lo)
        self.us, self.vs, self.ws = lo.take(by_lo), hi.take(by_lo), w.take(by_lo)
        del a, b, w, lo, hi, by_lo  # before the row layout, which sets the build's peak

        counts = np.bincount(self.us, minlength=n) + np.bincount(self.vs, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices, self.slot_edge = _rows(self.us, self.vs)
        self.weights = self.ws.take(self.slot_edge)
        for name in self.__slots__[2:]:  # the arrays
            getattr(self, name).flags.writeable = False

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def total_edge_count(self) -> int:
        return len(self.us)

    def vertex_sums(self) -> np.ndarray:
        """Each vertex's weight sum, in id order: its edges' weights added
        left to right from 0.0 in edge-list order, by one np.bincount,
        which adds in input order.  Row v lists its slots in that order,
        so this is also its row's running sum."""
        ends = np.column_stack((self.us, self.vs)).reshape(-1)
        # float64 also when there is no edge: a weighted bincount of
        # nothing is int64
        return np.bincount(ends, np.repeat(self.ws, 2), minlength=self.num_vertices
                           ).astype(np.float64, copy=False)

    def weighted_degrees(self) -> np.ndarray:
        """Each vertex's weight sum, correctly rounded as by ``math.fsum``
        over its row, in id order (float64)."""
        w = self.ws
        if (w == np.floor(w)).all() and w.sum() < 2.0**53:
            # integer weights whose float total is below 2**53: their exact
            # total is too (rounding nonnegative sums is monotone), so every
            # partial sum of a vertex's weights, in any order, is an integer
            # below 2**53 and exact, and vertex_sums is what fsum returns
            return self.vertex_sums()
        ptr, wts = self.indptr.tolist(), memoryview(self.weights)
        return np.array([math.fsum(wts[a:b]) for a, b in zip(ptr, ptr[1:])])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the (u, v, w) edge arrays, u < v, by ascending u."""
        return self.us, self.vs, self.ws

    def with_weights(self, weights) -> "Graph":
        """``Graph(self.labels, self.us, self.vs, weights)``: the same
        arrays, or the same error, without the checks the edges passed
        already.  The rows keep their layout, so only ``ws`` and
        ``weights`` are new: ``weights`` gathers ``ws`` through
        ``slot_edge``, and every other attribute is shared."""
        w = np.array(weights, dtype=np.float64)
        if len(w) != len(self.us):
            raise ValueError("edge id and weight arrays differ in length")
        _raise_first_failure(_weight_checks(w))
        g = Graph.__new__(Graph)
        for name in self.__slots__:
            setattr(g, name, getattr(self, name))
        # an index, not take: take copies a read-only index array first
        g.ws, g.weights = w, w[self.slot_edge]
        w.flags.writeable = g.weights.flags.writeable = False
        return g


def _by_row(rows: np.ndarray) -> np.ndarray:
    """The positions of ``rows`` in a stable sort by row, without an
    argsort: sort the distinct keys (row << bits) | position (exact
    while max(rows) << bits < 2**63) and mask the rows off again."""
    bits = (len(rows) - 1).bit_length()
    keys = rows << bits
    keys |= np.arange(len(rows))
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


def _rows(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``indices`` of the edges us_i -- vs_i, row after row, and
    the edge of each slot: edge i adds us_i -> vs_i and then vs_i -> us_i,
    and a stable sort by row keeps that order within each row."""
    ends = np.column_stack((us, vs)).reshape(-1)  # position p's row; p ^ 1's end
    keys = _by_row(ends)
    keys ^= 1
    indices = ends.take(keys)
    del ends
    keys >>= 1  # position 2i or 2i + 1 belongs to edge i
    return indices, keys


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
                 w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raise GraphFormatError naming the first invalid edge, if any;
    return each edge's lower and upper end.

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
    _raise_first_failure([
        ((lo < 0) | (hi >= n), lambda i: f"unknown vertex id in ({a[i]},{b[i]})"),
        (a == b, lambda i: f"self-loop on {labels[a[i]]!r}"),
        *_weight_checks(w),
        (repeat, lambda i: f"duplicate edge ({labels[a[i]]!r},{labels[b[i]]!r})"),
    ])
    return lo, hi


def _weight_checks(w: np.ndarray) -> list:
    """The per-edge weight checks, in order: finite, nonnegative, at most
    MAX_WEIGHT; each a (failing mask, message of edge i) pair."""
    return [
        (~np.isfinite(w), lambda i: f"non-finite weight {float(w[i])!r}"),
        (w < 0, lambda i: f"negative weight {float(w[i])!r}"),
        (w > MAX_WEIGHT,
         lambda i: f"weight too large {float(w[i])!r} (limit 2**400)"),
    ]


def _raise_first_failure(checks: list) -> None:
    """Raise GraphFormatError for the least edge that fails a check, with
    the message of the first check it fails."""
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
    Graph with vertices numbered in first-appearance order; edges with
    the same lower end keep their file order (see ``Graph``).

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
    edge_lines: list[int] = []  # the line number of each edge
    unparsable = None
    for line_num, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
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
        edge_lines.append(line_num)

    try:
        g = Graph(list(index), heads, tails, weights)
    except GraphFormatError as exc:
        raise GraphFormatError(f"line {edge_lines[exc.edge]}: {exc.reason}") from None
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
# newline.  Outside it, splitting on blanks would disagree with str.split
# (which also splits on \x0b, \x0c, \x1c-\x1f, \r and Unicode blanks),
# text mode ends lines at a lone \r, and fixed-width numpy byte strings
# drop trailing NULs.  Within it, the bytes <= 32 are exactly the blanks
# tab, newline and space.
_REGULAR_BYTES = bytes(b for b in range(0x20, 0x7f) if b != ord("#")) + b"\t\n"
# _KEEP[j] keeps the first j bytes of a word; built from bytes, so it
# holds in either byte order
_KEEP = np.frombuffer(b"".join(b"\xff" * j + bytes(8 - j) for j in range(9)),
                      dtype=np.uint64)


def _read_words(at: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row t is token t, NUL-padded to whole 8-byte words.  ``at[p]`` is
    the unaligned native-order read of the 8 data bytes from p on, so
    word j of token t is at[starts[t] + 8j] masked to the token's bytes,
    and the row's bytes, viewed as "S", are the token.  bytes.split
    would make a Python object of every token."""
    first = at[starts]
    # a clipping take reads _KEEP[min(size, 8)] without an index array
    first &= _KEEP.take(sizes, mode="clip")
    if sizes.max() <= 8:
        return first[:, None]
    words = np.zeros((len(starts), -(-int(sizes.max()) // 8)), dtype=np.uint64)
    words[:, 0] = first
    del first
    for j in range(8, 8 * words.shape[1], 8):
        has = np.flatnonzero(sizes > j)
        words[has, j // 8] = at[starts[has] + j] & _KEEP.take(sizes[has] - j, mode="clip")
    return words


def _pack_bits(words: np.ndarray) -> int | None:
    """Position width b of the packed label keys (word << b) | position,
    b = (t - 1).bit_length() for t label rows; None when a label takes
    more than one word or a key would reach 2**63."""
    bits = (len(words) - 1).bit_length()
    if words.shape[1] == 1 and int(words.max()) < 1 << (63 - bits):
        return bits
    return None


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
    # a blank before the data, a newline after it unless it ends in one,
    # then 8 NULs: every token now lies between two blanks (bytes <= 32),
    # every line ends in a newline, and an 8-byte read may start anywhere
    padded = b"".join((b" ", data, b"" if data[-1] == ord("\n") else b"\n", bytes(8)))
    buf = np.frombuffer(padded, dtype=np.uint8)
    cuts = np.flatnonzero(buf <= 32)
    gaps = np.diff(cuts)
    token = np.flatnonzero(gaps > 1)  # token t follows cut token[t]
    eol = np.flatnonzero(buf[cuts] == ord("\n"))  # the cut ending each line
    # line i must hold tokens cols * i .. cols * (i + 1) - 1
    cols = len(token) // len(eol)
    if (cols not in (2, 3) or len(token) != cols * len(eol)
            or (token[cols - 1::cols] >= eol).any() or (token[cols::cols] < eol[:-1]).any()):
        return None
    starts = cuts.take(token).reshape(-1, cols)
    sizes = gaps.take(token).reshape(-1, cols)
    sizes -= 1
    # at[c] reads the 8 bytes after the blank at c: the token's first word
    at = np.ndarray(len(padded) - 8, np.uint64, padded, offset=1, strides=(1,))
    del padded, buf, cuts, gaps, token, eol
    if cols == 2:
        weights = np.ones(len(starts))
    else:
        weights = _read_words(at, starts[:, 2], sizes[:, 2])
        try:
            weights = weights.view(f"S{8 * weights.shape[1]}").ravel().astype(np.float64)
        except ValueError:
            return None
    # each label as a row of words; the order of the sort does not matter,
    # only that equal labels end up adjacent
    words = _read_words(at, starts[:, :2].ravel(), sizes[:, :2].ravel())
    del at, starts, sizes  # the padded copy goes before the sort
    # np.unique(return_index=True) would sort stably, which takes twice as
    # long; a label's first appearance is the least of its positions
    bits = _pack_bits(words)
    if bits is None:
        perm = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
        words = words[perm]
    else:
        # sorting the keys themselves is several times faster than an
        # argsort, and each key carries its word and its position; the
        # keys take the words' own buffer, and give it back to the words
        key = words.reshape(-1).view(np.int64)
        key <<= bits
        key |= np.arange(len(key))
        key.sort()
        perm = key & ((1 << bits) - 1)
        key >>= bits
        words = key.view(np.uint64)[:, None]
        del key
    # where each label's run starts, and its labels by first appearance
    groups = np.flatnonzero(np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1))))
    order = np.argsort(np.minimum.reduceat(perm, groups))
    uniq = words[groups[order]].view(f"S{8 * words.shape[1]}").ravel()
    del words
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    ids = np.empty(len(perm), dtype=np.int64)
    ids[perm] = np.repeat(rank, np.diff(groups, append=len(perm)))
    return b"\n".join(uniq.tolist()).decode("ascii").split("\n"), ids, weights
