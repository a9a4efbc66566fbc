"""Weighted undirected graph in compressed sparse row (CSR) form, and
edge-list parsing."""

from __future__ import annotations

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
    in ascending id, with the matching ``weights``; slot s holds edge
    ``slot_edge[s]``.

    The constructor is the one place that orders a row: row v lists its
    lower neighbors (the edges with ``vs == v``, by ascending ``us``),
    then its upper neighbors (the edges with ``us == v``, by ascending
    ``vs``).  ``with_weights`` keeps the layout and gathers the new
    weights through ``slot_edge``.  The walk adds each row as it lies,
    in ascending column order.  No other output depends on the order
    within a row: a vertex's weight sum is added in edge-list order
    (``vertex_sums``), the degree ranking orders correctly rounded sums
    (``ordering.degree_ranking``: ``vertex_sums`` with a proven error
    bound, ``math.fsum`` where the bound cannot decide), the peel takes
    each edge off a vertex's degree once, and segmentation and the DOT
    edge list read the edge list.

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
        ups = np.bincount(lo, minlength=n)
        by_lo = _by_row(lo)
        # us is the lower ends in ascending order: a repeat, not a gather
        self.us = np.repeat(np.arange(n, dtype=np.int64), ups)
        self.vs, self.ws = hi.take(by_lo), w.take(by_lo)
        del a, b, w, lo, hi, by_lo  # before the row layout, which sets the build's peak

        # row v: its lower neighbors (edges by (vs, us)), then its upper
        # neighbors (edges by (us, vs)), each part in ascending id
        by_hi = _by_row(self.vs)
        lower = self.us.take(by_hi)
        by_lo = by_hi.take(_by_row(lower))
        lows = np.bincount(self.vs, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lows + ups, out=self.indptr[1:])
        # the slots of the rows' lower parts
        low = np.repeat(np.tile([True, False], n), np.column_stack((lows, ups)).reshape(-1))
        # each array goes as soon as it is placed, as they set the build's peak
        self.slot_edge = np.empty(len(low), dtype=np.int64)
        self.slot_edge[low] = by_hi
        del by_hi
        self.indices = np.empty(len(low), dtype=np.int64)
        self.indices[low] = lower
        del lower
        np.logical_not(low, out=low)
        self.slot_edge[low] = by_lo
        self.indices[low] = self.vs.take(by_lo)
        del by_lo, low
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
        which adds in input order."""
        ends = np.column_stack((self.us, self.vs)).reshape(-1)
        # float64 also when there is no edge: a weighted bincount of
        # nothing is int64
        return np.bincount(ends, np.repeat(self.ws, 2), minlength=self.num_vertices
                           ).astype(np.float64, copy=False)

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


def source_ids(g: Graph, S: VertexSet) -> list[int]:
    """The ids of S in ascending order; ValueError if one lies outside
    0..n-1."""
    src = sorted(S)
    if src and (src[0] < 0 or src[-1] >= g.num_vertices):
        raise ValueError(f"source ids out of range 0..{g.num_vertices - 1}")
    return src


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


# The largest edge weight accepted.  The duplicate check's int64 codes
# lo * n + hi need n**2 < 2**63, so there are fewer than 2**63 vertex
# pairs, hence fewer than 2**63 edges and pair slots.  With every weight
# at most 2**400, a row's weight sum stays below 2**463, every squared
# slot deviation (slot weight - mean)**2 at most 2**800 and any sum of
# them below 2**863, and the DP's squared sum of slot-weighted centred
# means, (sum of a * c)**2 with sum of a < 2**63 and |c| <= 2**400,
# below 2**926: all finite, well short of the float maximum 2**1024.
# At the lower end a nonzero weight may be as small as the least
# subnormal, 5e-324.  A vertex whose weight sum lies below about 5.6e-309
# has no finite reciprocal, so the weighted walk divides its row's
# weights by that sum instead of multiplying by 1 / sum.
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
        strings; weight defaults to 1.0.  Blanks are what ``str.split``
        splits on, so a ``\\n`` or ``\\r`` inside one item is a blank too.
        Blank lines and lines whose first token starts with ``#`` are
        ignored.

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
    return _load(b"\n".join(line.encode("utf-8", "surrogatepass").translate(_ITEM_ENDS)
                            for line in lines))


def load_edge_list_path(path: str) -> Graph:
    """``load_edge_list`` on the UTF-8 file at ``path``, whose lines end
    in ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in text mode: the same
    Graph, or the same error.  Invalid UTF-8 raises UnicodeDecodeError."""
    with open(path, "rb") as f:
        data = f.read()
    data.decode("utf-8")  # raises on invalid UTF-8, as reading the file as text does
    return _load(data)


def _load(raw: bytes) -> Graph:
    """The Graph of an edge list's UTF-8 bytes.  As the line loop
    ``oracle.reference_load_edge_list`` does, the edges before the first
    bad line are built first, so a constructor error on one of them
    beats that line's error."""
    labels, ids, weights, bad_line = _parse(raw)
    try:
        g = Graph(labels, ids[0::2], ids[1::2], weights)
    except GraphFormatError as exc:
        _, cuts, token, heads, _ = _tokens(raw)
        line = _line_number(raw, cuts[token[heads[exc.edge]]])
        raise GraphFormatError(f"line {line}: {exc.reason}") from None
    if bad_line:
        raise GraphFormatError(bad_line)
    return g


# The bytes the parser reads differently from UTF-8 text.  \xfc and \xfd
# stand in for a \r and a \n inside one item of load_edge_list's lines,
# and \xff for NUL, so that a real NUL in a label stays apart from the NUL
# padding of the label words; UTF-8 never holds any of the three.
_ITEM_ENDS = bytes.maketrans(b"\r\n", b"\xfc\xfd")
_BACK = bytes.maketrans(b"\xfc\xfd\xff", b"\r\n\0")
# str.split's blanks besides the bytes 9-13 and 28-32: the two stand-ins
# and the UTF-8 forms of U+0085, U+00A0, U+1680, U+2000-U+200A, U+2028,
# U+2029, U+202F, U+205F and U+3000
_WIDE = [b"\xfc", b"\xfd", *(c.encode() for c in map(chr, range(128, 0x3001)) if c.isspace())]
# every byte below the least first byte of a _WIDE blank, \xc2
_NOT_LEADS = bytes(range(min(blank[0] for blank in _WIDE)))
# _KEEP[j] keeps the first j bytes of a word; built from bytes, so it
# holds in either byte order
_KEEP = np.frombuffer(b"".join(b"\xff" * j + bytes(8 - j) for j in range(9)),
                      dtype=np.uint64)


def _text(b: bytes) -> str:
    """Parsed bytes as the text they came from."""
    return b.translate(_BACK).decode("utf-8", "surrogatepass")


def _line_number(raw: bytes, p: int) -> int:
    """The 1-based number of the line holding offset p of raw, a token's
    first byte: lines end in \\n, \\r\\n or a lone \\r."""
    return raw.count(b"\n", 0, p) + raw.count(b"\r", 0, p) - raw.count(b"\r\n", 0, p) + 1


def _tokens(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split raw, an edge list's bytes, as str.split splits each line.

    Returns (padded, cuts, token, heads, counts): padded is raw after a
    blank, with NUL as \\xff, and token t lies between its blanks
    cuts[token[t]] and cuts[token[t] + 1].  Data line j, one that is not
    blank and whose first token does not start with ``#``, holds
    counts[j] tokens from token heads[j] on.
    """
    padded = raw.replace(b"\0", b"\xff")
    if not padded.isascii():
        # the lead bytes that occur, from one scan: a blank is replaced
        # only where its first byte is among them
        leads = padded.translate(None, _NOT_LEADS)
        for blank in _WIDE:  # as many spaces, so offsets stay raw's
            if blank[0] in leads:
                padded = padded.replace(blank, b" " * len(blank))
    # a blank before the data and a newline after it, so every token lies
    # between two blanks, then 8 bytes that are no blank, so an 8-byte read
    # may start anywhere
    padded = b"".join((b" ", padded, b"\n", b"\xff" * 8))
    buf = np.frombuffer(padded, dtype=np.uint8)
    cuts = np.flatnonzero(buf <= 32)
    byte = buf.take(cuts)
    blank = (byte >= 28) | ((byte >= 9) & (byte <= 13))  # the others are label bytes
    if not blank.all():
        cuts, byte = cuts[blank], byte[blank]
    token = np.flatnonzero(np.diff(cuts) > 1)  # token t lies after cut token[t]
    # the last token of each line: a line end (\n or \r) among the cuts
    # between it and the next token; byte[1:][c] is cut c + 1
    lasts = np.flatnonzero(np.logical_or.reduceat((byte[1:] == 10) | (byte[1:] == 13), token))
    counts = np.diff(lasts, prepend=-1)
    heads = lasts - counts + 1
    data_line = buf.take(cuts.take(token.take(heads)) + 1) != ord("#")
    return padded, cuts, token, heads[data_line], counts[data_line]


def _spans(cuts: np.ndarray, before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets in raw and the sizes of the tokens that follow the
    cuts ``before`` (``token[t]`` for token t)."""
    starts = cuts.take(before)
    return starts, cuts[1:].take(before) - starts - 1


def _read_words(padded: bytes, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row j holds word j of every token: its bytes 8j to 8j + 7, NUL
    past its end.  ``at[p]`` is the unaligned native-order read of the 8
    bytes of padded from p + 1 on, so word j of token t is
    ``at[starts[t] + 8j]`` masked to the token's bytes; bytes.split
    would make a Python object of every token."""
    at = np.ndarray(len(padded) - 8, np.uint64, padded, offset=1, strides=(1,))
    words = np.empty((max(1, -(-int(sizes.max(initial=0)) // 8)), len(starts)), np.uint64)
    for j, word in enumerate(words):
        # a clipping take reads _KEEP[min(max(size - 8j, 0), 8)] into the row
        np.concatenate((np.zeros(8 * j, np.uint64), _KEEP)).take(sizes, out=word, mode="clip")
        # word j lies 8j bytes on; a token without one may read any word in
        # range, as its mask is 0
        word &= at[8 * j:][np.minimum(starts, len(at) - 1 - 8 * j) if j else starts]
    return words


def _as_bytes(words: np.ndarray) -> np.ndarray:
    """Column t of ``_read_words``' rows as one bytes item: the token."""
    return np.ascontiguousarray(words.T).view(f"S{8 * len(words)}").ravel()


def _pack_bits(words: np.ndarray) -> int | None:
    """Position width b of the packed label keys (word << b) | position,
    b = (t - 1).bit_length() for t label columns; None when a label takes
    more than one word or a key would reach 2**63."""
    bits = (words.shape[1] - 1).bit_length()
    return bits if len(words) == 1 and int(words.max()) < 1 << (63 - bits) else None


def _parse(raw: bytes) -> tuple[list[str], np.ndarray, np.ndarray, str | None]:
    """(labels, ids, weights) of the edges before the first bad line of
    raw, and that line's error message, or None.

    A bad line holds other than 2 or 3 tokens, or a weight that neither
    numpy's bytes-to-float cast nor Python's ``float`` reads.  Labels
    are numbered in first-appearance order and ``ids`` lists each
    edge's two ids in file order, as the line loop does.
    """
    padded, cuts, token, heads, counts = _tokens(raw)
    bad_line = None
    bad = np.flatnonzero((counts < 2) | (counts > 3))
    if len(bad):
        starts, sizes = _spans(cuts, token[heads[bad[0]] + np.array([0, counts[bad[0]] - 1])])
        got = _text(raw[starts[0]:starts[1] + sizes[1]])
        bad_line = (f"line {_line_number(raw, starts[0])}: "
                    f"expected 'u v' or 'u v weight', got {got!r}")
        heads, counts = heads[:bad[0]], counts[:bad[0]]
    weights = np.ones(len(heads))
    three = np.flatnonzero(counts == 3)
    starts, sizes = _spans(cuts, token.take(heads.take(three) + 2))
    words = _as_bytes(_read_words(padded, starts, sizes))
    try:
        weights[three] = words.astype(np.float64)
    except ValueError:  # read again one by one: float also takes "1_0"
        for i, text in enumerate(map(_text, words.tolist())):
            try:
                weights[three[i]] = float(text)
            except ValueError:
                bad_line = f"line {_line_number(raw, starts[i])}: bad weight {text!r}"
                heads, weights = heads[:three[i]], weights[:three[i]]
                break
    if not len(heads):
        return [], np.zeros(0, dtype=np.int64), weights, bad_line
    # each label as a column of words; the order of the sort does not
    # matter, only that equal labels end up adjacent
    before = token.take(np.column_stack((heads, heads + 1)).reshape(-1))
    del token, heads, counts
    starts, sizes = _spans(cuts, before)
    del cuts, before
    words = _read_words(padded, starts, sizes)
    del padded, starts, sizes  # the padded copy goes before the sort
    # np.unique(return_index=True) would sort stably, which takes twice as
    # long; a label's first appearance is the least of its positions
    bits = _pack_bits(words)
    if bits is None:
        perm = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
        words = words[:, perm]
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
        words = key.view(np.uint64)[None]
    # where each label's run starts, and its labels by first appearance
    groups = np.flatnonzero(np.concatenate(([True], (words[:, 1:] != words[:, :-1]).any(axis=0))))
    order = np.argsort(np.minimum.reduceat(perm, groups))
    uniq = _as_bytes(words[:, groups[order]])
    del words
    rank = np.argsort(order)  # each label's id, in sorted order
    # each position's id, in position order: a sort of the keys
    # (position << b) | id is faster than writing ids[perm]
    bits = (len(perm) - 1).bit_length()
    ids = perm << bits
    ids |= np.repeat(rank, np.diff(groups, append=len(perm)))
    ids.sort()
    ids &= (1 << bits) - 1
    return _text(b"\n".join(uniq.tolist())).split("\n"), ids, weights, bad_line
