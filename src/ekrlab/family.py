"""Ground types: parameters and k-uniform families; links and cover graphs are 2-uniform families."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Optional

from .masks import (
    Mask,
    bit,
    full_mask,
    iter_bits,
    labels,
    mask_of,
    mask_rows,
    popcount,
    row_dtype,
    unrank_subset,
)


@dataclass(frozen=True)
class FamilyParams:
    """Ground-set size ``n`` (vertices labeled 1..n) and edge size ``k``."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"require 1 <= k <= n, got n={self.n} k={self.k}")

    @cached_property
    def full(self) -> Mask:
        return full_mask(self.n)


INCIDENCE_BLOCK = 2048  # edges per block of the incidence build; a multiple of 8
INDEX_BLOCK = 1 << 12  # edges per block of the label-row, mask and vertex-index builds


@dataclass(frozen=True)
class Family:
    """An explicit k-uniform family: strictly increasing, deduplicated edge
    masks.  ``rows`` and ``index``, built on first use, hold each edge's
    labels and each vertex's edges for the extension and star queries."""

    params: FamilyParams
    edges: tuple[Mask, ...]

    def __post_init__(self) -> None:
        k, outside = self.params.k, ~self.params.full
        prev = -1
        for e in self.edges:
            if e & outside:
                raise ValueError(f"edge {labels(e)} not within ground set [..{self.params.n}]")
            if e.bit_count() != k:
                raise ValueError(f"edge {labels(e)} has size {e.bit_count()}, expected {k}")
            if e <= prev:
                raise ValueError("edges not strictly increasing in canonical order")
            prev = e

    @classmethod
    def _trusted(cls, params: FamilyParams, edges: tuple[Mask, ...], rows=None, **fields) -> "Family":
        """A family built without the checks, for callers that have proved
        its edges strictly increasing k-sets of [n]; ``rows``, when given,
        are its ``rows``, and ``fields`` a subclass's other fields."""
        fam = object.__new__(cls)
        fam.__dict__.update(params=params, edges=edges, **fields)
        if rows is not None:
            fam.__dict__["rows"] = rows  # the cached property's value
        return fam

    @classmethod
    def from_masks(cls, params: FamilyParams, edges: Iterable[Mask]) -> "Family":
        return cls(params, tuple(sorted(set(edges))))

    @classmethod
    def from_labels(cls, params: FamilyParams, edges: Iterable[Iterable[int]]) -> "Family":
        return cls.from_masks(params, (mask_of(e) for e in edges))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per-vertex edge-incidence bitsets: bit j of entry v-1 is set iff edge j contains v.

        Setting bit j of a growing int costs O(j) words, so bits are set
        within blocks of ``INCIDENCE_BLOCK`` edges and each vertex's
        blocks are joined once, as bytes; the build stays linear in the
        total edge size.
        """
        n, edges = self.params.n, self.edges
        if len(edges) <= INCIDENCE_BLOCK:
            return tuple(_incidence_block(edges, n))
        width = INCIDENCE_BLOCK // 8
        parts = [bytearray() for _ in range(n)]
        for start in range(0, len(edges), INCIDENCE_BLOCK):
            block = _incidence_block(edges[start : start + INCIDENCE_BLOCK], n)
            for part, bits in zip(parts, block):
                part += bits.to_bytes(width, "little")
        return tuple(int.from_bytes(part, "little") for part in parts)

    @cached_property
    def rows(self):
        """The edges as a |F| × k numpy matrix of vertex indices (label - 1),
        ascending along each row, in edge order, of dtype ``row_dtype(n)``.
        The bulk reader hands in the rows it parsed; otherwise they are
        unpacked from the masks (``mask_rows``) a block of edges at a time."""
        import numpy as np

        n, k, edges = self.params.n, self.params.k, self.edges
        out = np.empty((len(edges), k), row_dtype(n))
        for lo in range(0, len(edges), INDEX_BLOCK):
            out[lo : lo + INDEX_BLOCK] = mask_rows(edges[lo : lo + INDEX_BLOCK], n, k)
        return out

    @cached_property
    def index(self):
        """Per-vertex runs of edge ids, read off ``rows`` (CSR): the edges
        through the vertex with index v are ``edges[i]`` for i in
        ``ids[starts[v] : starts[v + 1]]``, ascending.

        ``ids`` is int32; each block of ``INDEX_BLOCK`` rows is sorted by
        vertex (stably, so ids ascend within a vertex) and written straight
        into its vertices' runs, with no whole-family temporary.
        """
        import numpy as np

        rows, n = self.rows, self.params.n
        blocks = [rows[lo : lo + INDEX_BLOCK].ravel() for lo in range(0, len(rows), INDEX_BLOCK)]
        counts = [np.bincount(flat, minlength=n) for flat in blocks]
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(sum(counts, np.zeros(n, np.int64)), out=starts[1:])
        ids = np.empty(starts[-1], np.int32)
        fill = starts[:-1].copy()
        k = self.params.k
        for b, (flat, count) in enumerate(zip(blocks, counts)):
            order = np.argsort(flat, kind="stable")
            verts = flat[order]
            first = np.cumsum(count) - count  # where each vertex's group starts in ``order``
            ids[fill[verts] + np.arange(len(flat)) - first[verts]] = b * INDEX_BLOCK + order // k
            fill += count
        return starts, ids

    def run(self, v: int):
        """Ids of the edges through the vertex with index v (label v + 1), ascending."""
        starts, ids = self.index
        return ids[starts[v] : starts[v + 1]]

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, e: Mask) -> bool:
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e


def _incidence_block(edges: tuple[Mask, ...], n: int) -> list[int]:
    """Incidence bitsets of a run of edges, bit j for the run's j-th edge."""
    inc = [0] * n
    for j, e in enumerate(edges):
        jb = 1 << j
        while e:
            low = e & -e
            inc[low.bit_length() - 1] |= jb
            e ^= low
    return inc


@dataclass(frozen=True)
class StarViolation:
    """Witness that a restriction is not a complete star: one edge, classified."""

    kind: str  # "missing" (star edge absent) or "offending" (edge avoids the center)
    edge: Mask


def disjoint_pair(fam: Family) -> Optional[tuple[Mask, Mask]]:
    """First (canonical order) pair of disjoint edges, or None if intersecting.

    The OR of the incidence bitsets of edge i's vertices marks every edge
    that meets it; the lowest unmarked bit above i is its first partner.
    """
    edges, inc = fam.edges, fam.incidence
    all_edges = (1 << len(edges)) - 1
    for i, e in enumerate(edges):
        meets = 0
        while e:
            low = e & -e
            meets |= inc[low.bit_length() - 1]
            e ^= low
        later = (all_edges ^ meets) >> (i + 1)
        if later:
            return edges[i], edges[i + (later & -later).bit_length()]
    return None


def is_intersecting(fam: Family) -> bool:
    return disjoint_pair(fam) is None


def covers_size1(fam: Family) -> tuple[Mask, bool]:
    """Vertices lying in every edge, as (mask, vacuous).

    The flag marks the degenerate empty family, for which every vertex
    is vacuously a cover and the whole ground set is returned.
    """
    if not fam.edges:
        return fam.params.full, True
    c = fam.params.full
    for e in fam.edges:
        c &= e
        if not c:
            break
    return c, False


def covers_size2(fam: Family, area: Mask) -> Family:
    """All 2-subsets of ``area`` that meet every edge, as a 2-uniform family on [n].

    Edge-incidence bitsets make each pair test one AND over |F| bits:
    the pair {a, b} is a cover when no edge avoids both.
    """
    inc, all_edges = fam.incidence, (1 << len(fam.edges)) - 1
    verts = list(iter_bits(area))
    avoid = {a: all_edges ^ inc[a.bit_length() - 1] for a in verts}
    pairs = []
    for j, b in enumerate(verts):  # b ascends outermost: the pairs come in canonical order
        av_b = avoid[b]
        for a in verts[:j]:
            if not av_b & avoid[a]:
                pairs.append(a | b)
    return Family._trusted(FamilyParams(fam.params.n, 2), tuple(pairs))


def is_complete_star_on(fam: Family, window: Mask, center: int) -> Optional[StarViolation]:
    """Check F[window] is the complete star at ``center``; None means yes.

    Returns the first offending edge (inside the window, avoiding the
    center) or else the first missing star edge, in canonical order.
    The edges outside the window are the runs of its outside vertices;
    the present star edges are the center's run less those.  The j-th
    present star edge is the j-th star edge exactly when none is missing
    before it, so the first missing one is found by binary search,
    unranking O(log |F|) star edges.
    """
    cbit = bit(center)
    if not window & cbit:
        raise ValueError("center must lie inside the window")
    k = fam.params.k
    if popcount(window) < k:
        raise ValueError("window smaller than the edge size")
    import numpy as np

    outside = np.zeros(len(fam.edges), bool)
    for v in iter_bits(fam.params.full & ~window):
        outside[fam.run(v.bit_length() - 1)] = True
    through = fam.run(center - 1)
    offending = ~outside
    offending[through] = False
    hits = np.flatnonzero(offending)
    if len(hits):
        return StarViolation("offending", fam.edges[hits[0]])
    present = through[~outside[through]]
    if len(present) == comb(popcount(window) - 1, k - 1):
        return None
    others = list(iter_bits(window & ~cbit))
    lo, hi = 0, len(present)
    while lo < hi:  # the first j at which the j-th present star edge is not the j-th star edge
        mid = (lo + hi) // 2
        if fam.edges[present[mid]] == cbit | unrank_subset(others, k - 1, mid):
            lo = mid + 1
        else:
            hi = mid
    return StarViolation("missing", cbit | unrank_subset(others, k - 1, lo))
