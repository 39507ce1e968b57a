"""Query access to families, explicit or implicit.

An oracle answers containment, codegree, extension and enumeration
queries; an extension is the canonically smallest edge holding a base,
and an enumeration every such edge in canonical order.  The explicit
realization wraps a materialized :class:`Family` and exposes it as
``family``, which is None on an oracle that answers for no explicit
family; the star realization answers for the complete star centered at a
vertex without materializing its C(n-1, k-1) edges.

The sampled star checks ask their queries a batch at a time through
:meth:`FamilyOracle.first_failure`.  Its default asks them one by one;
the star answers a batch in closed form, by whole-batch tests, as long
as its ``contains`` and ``degree`` are its own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb
from operator import eq
from typing import Iterator, NamedTuple, Optional

from .family import Family, FamilyParams
from .masks import (
    Mask,
    bit,
    iter_bits,
    iter_ksubsets,
    iter_subsets_within,
    labels,
    mask_of,
    popcount,
    row_masks,
    smallest_subset,
)


class BatchFailure(NamedTuple):
    """The first sample of a batch whose query fails: its row, the query kind
    ("degree" or "contains") and the degree observed on that row, if one was asked."""

    index: int
    kind: str
    degree: Optional[int]


class FamilyOracle(ABC):
    """Query access to a k-uniform family on [n]: membership, the degree of
    a set, and the edges holding a base, the smallest one or all of them."""

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
    def extension(self, base: Mask) -> Optional[Mask]:
        """Canonically smallest edge containing ``base``."""

    @abstractmethod
    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        """All edges containing ``base``, in canonical order."""

    def first_edge(self) -> Optional[Mask]:
        return self.extension(0)

    def first_failure(self, edges, sets=None, required: int = 0) -> Optional[BatchFailure]:
        """Ask a batch of samples in order and stop at the first failure.

        ``edges`` and ``sets`` are label rows, one sample per row, with
        distinct indices in each row: the sampler draws distinct pool
        positions from a pool without the star vertex, and redraws a k-2
        edge's extra vertex until it avoids its row.  Sample i asks
        ``degree(sets[i])`` when ``sets`` is given, and fails if it is below
        ``required``; then it asks ``contains(edges[i])`` and fails if that
        is False.  This default asks exactly those queries, one at a time;
        None means every sample passed.
        """
        queried = row_masks(sets) if sets is not None else None
        for i, e in enumerate(row_masks(edges)):
            deg = None
            if queried is not None:
                deg = self.degree(queried[i])
                if deg < required:
                    return BatchFailure(i, "degree", deg)
            if not self.contains(e):
                return BatchFailure(i, "contains", deg)
        return None

    def _check_degree_arg(self, s: Mask) -> None:
        if popcount(s) > self.params.k:
            raise ValueError(f"degree query set {labels(s)} larger than k={self.params.k}")
        if s & ~self.params.full:
            raise ValueError("query set outside the ground set")


class ExplicitOracle(FamilyOracle):
    """Oracle backed by an explicit family: extensions are read off its
    edge tuple for an empty base and off its per-vertex edge index
    otherwise; degrees are counted by a plain scan, the route independent
    of the index that re-verification relies on."""

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

    def extension(self, base: Mask) -> Optional[Mask]:
        ids = self._extending(base)
        return self.family.edges[ids[0]] if len(ids) else None

    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        edges = self.family.edges
        for i in self._extending(base):
            yield edges[i]

    def _extending(self, base: Mask):
        """Ids, ascending, of the edges that hold ``base``: every id for an
        empty base, read off the edge tuple; otherwise the rarest base
        vertex's run, filtered by a table of the base vertices."""
        fam = self.family
        if base & ~fam.params.full:
            return ()
        verts = [b.bit_length() - 1 for b in iter_bits(base)]
        if not verts:
            return range(len(fam.edges))
        starts = fam.index[0]
        cand = fam.run(min(verts, key=lambda v: starts[v + 1] - starts[v]))
        if len(verts) == 1:
            return cand
        import numpy as np

        held = np.zeros(fam.params.n, bool)
        held[verts] = True
        return cand[held[fam.rows[cand]].sum(axis=1) == len(verts)]


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
        through, avoiding = self._degrees
        return (through if s & self._cbit else avoiding)[popcount(s)]

    @cached_property
    def _degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Degree of a d-set, d = 0..k: one table for sets through the center, one for sets avoiding it."""
        n, k = self._params.n, self._params.k
        through = tuple(comb(n - d, k - d) for d in range(k + 1))
        return through, tuple(comb(n - d - 1, k - d - 1) if d < k else 0 for d in range(k + 1))

    def extension(self, base: Mask) -> Optional[Mask]:
        p = self._params
        core = base | self._cbit
        need = p.k - popcount(core)
        if base & ~p.full or need < 0:
            return None  # every edge lies in [n] and contains the center
        return core | smallest_subset(p.full & ~core, need)

    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        p = self._params
        core = base | self._cbit
        need = p.k - popcount(core)
        if base & ~p.full or need < 0:
            return
        for rest in iter_subsets_within(p.full & ~core, need):
            yield core | rest

    def first_failure(self, edges, sets=None, required: int = 0) -> Optional[BatchFailure]:
        """The default's answer, by whole-batch tests on the label rows.

        With distinct indices in each row, a row is a star edge when the
        batch is k wide, no index is n or above and one is the center's.
        Every set of the batch has its width, so its degree is read off
        the ``_degrees`` tables at that width, through or avoiding the
        center; a set wider than k or one past n raises as :meth:`degree`
        does.  A subclass that overrides ``contains`` or ``degree`` gets
        the default, which asks its own answers.
        """
        if not _star_closed_form(self):
            return super().first_failure(edges, sets, required)
        import numpy as np

        n, k, c = self._params.n, self._params.k, self.center - 1
        stop = (edges >= n).any(axis=1) | ~(edges == c).any(axis=1) | (edges.shape[1] != k)
        if sets is None:
            hits = np.flatnonzero(stop)
            return BatchFailure(int(hits[0]), "contains", None) if len(hits) else None
        width = sets.shape[1]
        invalid = (sets >= n).any(axis=1) | (width > k)
        through = (sets == c).any(axis=1)
        degrees = [table[min(width, k)] for table in self._degrees]
        low = invalid | np.where(through, degrees[0] < required, degrees[1] < required)
        hits = np.flatnonzero(stop | low)
        if not len(hits):
            return None
        i = int(hits[0])
        if invalid[i]:
            self._check_degree_arg(row_masks(sets[i : i + 1])[0])
        deg = degrees[0 if through[i] else 1]
        return BatchFailure(i, "degree" if low[i] else "contains", deg)


_STAR_CONTAINS, _STAR_DEGREE = StarOracle.contains, StarOracle.degree


def _star_closed_form(oracle: FamilyOracle) -> bool:
    """True when ``oracle`` is a StarOracle whose ``contains`` and ``degree``
    are the ones defined here.  A subclass that overrides either one, or a
    wrapper patched onto the class, is asked query by query instead."""
    cls = type(oracle)
    return isinstance(oracle, StarOracle) and cls.contains is _STAR_CONTAINS and cls.degree is _STAR_DEGREE


def as_oracle(source: FamilyOracle | Family) -> FamilyOracle:
    """An explicit family as its :class:`ExplicitOracle`; an oracle as itself."""
    return ExplicitOracle(source) if isinstance(source, Family) else source


def link(source: FamilyOracle | Family, base: Mask) -> Family:
    """Link of a (k-2)-set: the pairs T with T | base an edge, as a 2-uniform family on [n].

    That each enumerated edge is a k-set of [n] holding ``base`` is
    ``CountingOracle``'s check, so the pairs are 2-sets of [n].  Removing
    the same bits from each edge keeps the enumeration's order, which the
    sort (one pass over an ordered run) enforces on an oracle that breaks
    it; an enumeration that repeats an edge raises ValueError.
    """
    oracle = as_oracle(source)
    p = oracle.params
    if popcount(base) != p.k - 2:
        raise ValueError(f"base must have size k-2 = {p.k - 2}")
    pairs = sorted(e & ~base for e in oracle.enumerate_extensions(base))
    if any(map(eq, pairs, islice(pairs, 1, None))):
        raise ValueError(f"the enumeration through {labels(base)} repeats an edge")
    return Family._trusted(FamilyParams(p.n, 2), tuple(pairs))


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
    if _star_closed_form(oracle):
        return oracle._degrees[1][d], smallest_subset(p.full & ~bit(oracle.center), d)
    return min_degree_scan(oracle, d)
