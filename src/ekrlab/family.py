"""Ground types: parameters and k-uniform families; links and cover graphs are 2-uniform families."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import comb
from typing import Iterable, Optional

from .masks import (
    Mask,
    bit,
    full_mask,
    iter_bits,
    iter_subsets_within,
    labels,
    mask_of,
    popcount,
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


@dataclass(frozen=True)
class Family:
    """An explicit k-uniform family: strictly increasing, deduplicated edge masks."""

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
    for i, a in enumerate(verts):
        av_a = avoid[a]
        for b in verts[i + 1 :]:
            if not av_a & avoid[b]:
                pairs.append(a | b)
    return Family(FamilyParams(fam.params.n, 2), tuple(sorted(pairs)))


def is_complete_star_on(fam: Family, window: Mask, center: int) -> Optional[StarViolation]:
    """Check F[window] is the complete star at ``center``; None means yes.

    Returns the first offending edge (inside the window, avoiding the
    center) or else the first missing star edge, in canonical order.
    One scan collects the edges inside the window; when none avoids the
    center and there are C(|W|-1, k-1) of them the star is complete, and
    only otherwise are the star edges enumerated to name the missing one.
    """
    cbit = bit(center)
    if not window & cbit:
        raise ValueError("center must lie inside the window")
    k = fam.params.k
    if popcount(window) < k:
        raise ValueError("window smaller than the edge size")
    outside = ~window
    inside = [e for e in fam.edges if not e & outside]
    offending = next((e for e in inside if not e & cbit), None)
    if offending is not None:
        return StarViolation("offending", offending)
    if len(inside) == comb(popcount(window) - 1, k - 1):
        return None
    star = (rest | cbit for rest in iter_subsets_within(window & ~cbit, k - 1))
    return next(StarViolation("missing", e) for e, have in zip(star, chain(inside, [0])) if e != have)
