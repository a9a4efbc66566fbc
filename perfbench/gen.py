"""Seeded G(n, m) edge-list inputs for the benchmark workloads.

The construction is the acceptance suite's criterion-11 graph: draw
1.25 m random vertex pairs, drop self-pairs and duplicates, shuffle the
rest and keep the first m.  Labels are the vertex numbers, so a vertex
that no kept pair touches is absent from the file.  The optional weight
column holds integers 1..99 drawn from the same generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EdgeList:
    """The generated edges, line by line: ``lo[i] hi[i] [w[i]]``, lo < hi."""
    lo: np.ndarray
    hi: np.ndarray
    w: np.ndarray | None

    def to_bytes(self) -> bytes:
        lo, hi = self.lo.tolist(), self.hi.tolist()
        if self.w is None:
            lines = [f"{a} {b}" for a, b in zip(lo, hi)]
        else:
            lines = [f"{a} {b} {c}" for a, b, c in zip(lo, hi, self.w.tolist())]
        return ("\n".join(lines) + "\n").encode("ascii")


def gnm(n: int, m: int, weighted: bool, key: tuple[int, ...]) -> EdgeList:
    """m distinct random edges over vertices 0..n-1.

    ``key`` seeds the generator, for example (seed, workload, graph), so
    one seed gives every workload its own graphs; the same key always
    gives the same edges.
    """
    rng = np.random.default_rng(list(key))
    want = int(m * 1.25)
    us = rng.integers(0, n, size=want)
    vs = rng.integers(0, n, size=want)
    mask = us != vs
    lo = np.minimum(us[mask], vs[mask]).astype(np.int64)
    hi = np.maximum(us[mask], vs[mask]).astype(np.int64)
    codes = np.unique(lo * n + hi)
    if len(codes) < m:
        raise ValueError(f"only {len(codes)} distinct pairs drawn for m={m}")
    rng.shuffle(codes)
    codes = codes[:m]
    w = rng.integers(1, 100, size=m) if weighted else None
    return EdgeList(lo=codes // n, hi=codes % n, w=w)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
