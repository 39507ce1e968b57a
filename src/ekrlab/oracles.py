"""Query access to families, explicit or implicit.

An oracle answers containment, codegree, and extension queries.  The
explicit realization wraps a materialized :class:`Family` and exposes it
as ``family``, which is None on an oracle that answers for no explicit
family; the star realization answers for the complete star centered at a
vertex without materializing its C(n-1, k-1) edges.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from itertools import chain, combinations
from math import comb
from typing import Iterator, Optional

from .family import Family, FamilyParams
from .masks import (
    Mask,
    bit,
    iter_ksubsets,
    iter_subsets_within,
    labels,
    mask_of,
    popcount,
    smallest_subset,
)


class FamilyOracle(ABC):
    family: Optional[Family] = None  # the explicit family the oracle answers for, if it has one

    @property
    @abstractmethod
    def params(self) -> FamilyParams: ...

    @abstractmethod
    def contains(self, e: Mask) -> bool: ...

    @abstractmethod
    def degree(self, s: Mask) -> int:
        """Number of edges containing ``s`` (requires |s| <= k)."""

    @abstractmethod
    def extension(self, base: Mask, forbidden: Mask = 0) -> Optional[Mask]:
        """Canonically smallest edge e >= base with (e - base) avoiding ``forbidden``."""

    @abstractmethod
    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        """All edges containing ``base``, in canonical order."""

    def first_edge(self) -> Optional[Mask]:
        return self.extension(0, 0)

    def _check_degree_arg(self, s: Mask) -> None:
        if popcount(s) > self.params.k:
            raise ValueError(f"degree query set {labels(s)} larger than k={self.params.k}")
        if s & ~self.params.full:
            raise ValueError("query set outside the ground set")


class ExplicitOracle(FamilyOracle):
    """Oracle backed by scans over an explicit edge list."""

    def __init__(self, family: Family):
        self.family = family

    @property
    def params(self) -> FamilyParams:
        return self.family.params

    def contains(self, e: Mask) -> bool:
        return e in self.family

    def degree(self, s: Mask) -> int:
        self._check_degree_arg(s)
        return sum(1 for e in self.family.edges if e & s == s)

    def extension(self, base: Mask, forbidden: Mask = 0) -> Optional[Mask]:
        for e in self.family.edges:
            if e & base == base and not (e & ~base) & forbidden:
                return e
        return None

    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        for e in self.family.edges:
            if e & base == base:
                yield e


class StarOracle(FamilyOracle):
    """The complete star centered at ``center``, answered in closed form."""

    def __init__(self, n: int, k: int, center: int):
        if not (1 <= center <= n):
            raise ValueError(f"center {center} outside [1..{n}]")
        self._params = FamilyParams(n, k)
        self.center = center
        self._cbit = bit(center)

    @property
    def params(self) -> FamilyParams:
        return self._params

    def contains(self, e: Mask) -> bool:
        p = self._params
        return popcount(e) == p.k and not e & ~p.full and bool(e & self._cbit)

    def degree(self, s: Mask) -> int:
        self._check_degree_arg(s)
        p, d = self._params, popcount(s)
        if s & self._cbit:
            return comb(p.n - d, p.k - d)
        return comb(p.n - d - 1, p.k - d - 1) if p.k - d - 1 >= 0 else 0

    def extension(self, base: Mask, forbidden: Mask = 0) -> Optional[Mask]:
        p = self._params
        if popcount(base) > p.k or base & ~p.full:
            return None
        core = base | self._cbit
        if popcount(core) > p.k:
            return None  # every edge contains the center
        if (core & ~base) & forbidden:
            return None  # the center itself would violate the exclusion
        free = p.full & ~core & ~forbidden
        need = p.k - popcount(core)
        if popcount(free) < need:
            return None
        return core | smallest_subset(free, need)

    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        p = self._params
        core = base | self._cbit
        need = p.k - popcount(core)
        if popcount(base) > p.k or base & ~p.full or need < 0:
            return
        for rest in iter_subsets_within(p.full & ~core, need):
            yield core | rest


def as_oracle(source: FamilyOracle | Family) -> FamilyOracle:
    """An explicit family as its :class:`ExplicitOracle`; an oracle as itself."""
    return ExplicitOracle(source) if isinstance(source, Family) else source


def link(source: FamilyOracle | Family, base: Mask) -> Family:
    """Link of a (k-2)-set: the pairs T with T | base an edge, as a 2-uniform family on [n]."""
    oracle = as_oracle(source)
    p = oracle.params
    if popcount(base) != p.k - 2:
        raise ValueError(f"base must have size k-2 = {p.k - 2}")
    return Family(FamilyParams(p.n, 2), tuple(sorted(e & ~base for e in oracle.enumerate_extensions(base))))


def min_degree_scan(oracle: FamilyOracle, d: int) -> tuple[int, Mask]:
    """Minimum d-degree by exhaustive iteration over all d-subsets of [n].

    The slow, assumption-free route; kept independent of the walk and
    counting routes for explicit families so they can check each other.
    """
    p = oracle.params
    if not (1 <= d <= p.k):
        raise ValueError(f"require 1 <= d <= k, got d={d}")
    best_val, best_arg = None, None
    for s in iter_ksubsets(p.n, d):
        v = oracle.degree(s)
        if best_val is None or v < best_val:
            best_val, best_arg = v, s
            if v == 0:
                break
    if best_val is None or best_arg is None:
        raise RuntimeError(f"no {d}-subset of [{p.n}] was scanned")
    return best_val, best_arg


def _min_degree_explicit(family: Family, d: int) -> tuple[int, Mask]:
    """Minimum d-degree of a nonempty explicit family, with the canonical argmin.

    The walk costs about C(n, d) ANDs of |F|/64 words, the tally |F| C(k, d)
    dict updates; the cheaper route by that count answers.
    """
    p, m = family.params, len(family.edges)
    if comb(p.n, d) * (m // 64 + 1) <= m * comb(p.k, d):
        return _min_degree_walk(family, d)
    return _min_degree_counting(family, d)


def _min_degree_walk(family: Family, d: int) -> tuple[int, Mask]:
    """Walk route: AND incidence bitsets down the canonical walk of the d-subsets of [n].

    The first strict minimum in canonical order is the canonical argmin,
    and the walk stops at the first degree 0.
    """
    inc = family.incidence
    best_val, best_arg = len(family.edges) + 1, 0

    def walk(acc: int, s: Mask, r: int, top: int) -> bool:
        # the sets s | T, T an r-subset of vertices 0..top-1, in canonical
        # order: the top vertex of T ascends outermost; True stops the walk
        nonlocal best_val, best_arg
        if r == 1:
            for t in range(top):
                c = (acc & inc[t]).bit_count()
                if c < best_val:
                    best_val, best_arg = c, s | 1 << t
                    if not c:
                        return True
            return False
        for t in range(r - 1, top):
            if walk(acc & inc[t], s | 1 << t, r - 1, t):
                return True
        return False

    walk((1 << len(family.edges)) - 1, 0, d, family.params.n)
    return best_val, best_arg


def _min_degree_counting(family: Family, d: int) -> tuple[int, Mask]:
    """Counting route: tally the d-subsets of every edge, then take the minimum.

    Subsets are tallied as label tuples, which cost less to form and hash
    than masks; reversed, they compare in canonical order.
    """
    p = family.params
    counts = Counter(chain.from_iterable(combinations(labels(e), d) for e in family.edges))
    if len(counts) < comb(p.n, d):
        for s in iter_ksubsets(p.n, d):
            if labels(s) not in counts:
                return 0, s
    best_val = min(counts.values())
    return best_val, mask_of(min(t[::-1] for t, v in counts.items() if v == best_val))


def min_degree(oracle: FamilyOracle | Family, d: int) -> tuple[int, Mask]:
    """Minimum d-degree over all d-subsets of [n], with a canonical argmin.

    Vertices outside the edge union count: an untouched d-set gives 0.
    The empty explicit family has minimum degree 0 everywhere.
    """
    p = oracle.params
    if not (1 <= d <= p.k):
        raise ValueError(f"require 1 <= d <= k, got d={d}")
    fam = oracle if isinstance(oracle, Family) else oracle.family
    if fam is not None:
        return _min_degree_explicit(fam, d) if fam.edges else (0, smallest_subset(p.full, d))
    if isinstance(oracle, StarOracle):
        value = comb(p.n - d - 1, p.k - d - 1) if p.k - d - 1 >= 0 else 0
        avoid = p.full & ~bit(oracle.center)
        return value, smallest_subset(avoid, d)
    return min_degree_scan(oracle, d)
