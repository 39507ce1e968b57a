"""Named extremal families and enumeration of maximal intersecting families."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from math import comb
from operator import and_, lt, or_
from typing import Callable, Iterator, Optional

from .bounds import hilton_milner_bound
from .canonical import canonical_form, member_table
from .family import Family, FamilyParams, is_intersecting
from .masks import Mask, bit, iter_ksubsets, iter_subsets_within, labels

ENUMERATION_GUARD = 10_000

DeltaSwaps = tuple[tuple[int, int], ...]  # a relabeling of cliques: (distance, low bits) pairs


class ResourceLimitError(RuntimeError):
    pass


def complete_star(n: int, k: int, center: int) -> Family:
    """All k-subsets of [n] containing ``center``; size C(n-1, k-1)."""
    params = FamilyParams(n, k)
    if not (1 <= center <= n):
        raise ValueError(f"center {center} outside [1..{n}]")
    cbit = bit(center)  # OR-ing a bit outside the pool keeps the subsets' canonical order
    return Family._trusted(params, tuple(cbit | rest for rest in iter_subsets_within(params.full & ~cbit, k - 1)))


def hilton_milner(n: int, k: int) -> Family:
    """The largest non-star intersecting family, anchored at vertex 1.

    Edges through 1 meeting {2..k+1}, plus the edge {2..k+1} itself.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    if n < 2 * k + 1:
        raise ValueError(f"n >= 2k+1 = {2 * k + 1} required, got n={n}")
    params = FamilyParams(n, k)
    base = 0
    for v in range(2, k + 2):
        base |= bit(v)
    one = bit(1)
    edges = [base]
    for rest in iter_subsets_within(params.full & ~one, k - 1):
        if rest & base:
            edges.append(one | rest)
    fam = Family.from_masks(params, edges)
    expected = hilton_milner_bound(n, k)
    if len(fam) != expected:
        raise RuntimeError(f"Hilton-Milner ({n},{k}) has {len(fam)} edges, expected {expected}")
    return fam


def random_maximal_intersecting(n: int, k: int, seed: int) -> Family:
    """Greedy saturation over a seed-shuffled visiting order of all k-subsets.

    Deterministic per (n, k, seed).  Below n = 2k every pair of k-sets
    meets, so the full family comes back.
    """
    params = FamilyParams(n, k)
    candidates = list(iter_ksubsets(n, k))
    rng = random.Random(seed)
    rng.shuffle(candidates)
    chosen: list[Mask] = []
    for c in candidates:
        if all(c & e for e in chosen):
            chosen.append(c)
    return Family.from_masks(params, chosen)


class BudgetExceeded(Exception):
    pass


@dataclass
class Budget:
    """Wall-clock plus node-count caps for long-running searches."""

    max_ms: Optional[int] = None
    max_nodes: Optional[int] = None
    nodes: int = 0
    started: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        for name, cap in (("max_ms", self.max_ms), ("max_nodes", self.max_nodes)):
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must be >= 0, got {cap}")

    def charge_node(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded("node budget exhausted")
        if self.max_ms is not None and (self.nodes & 0xFF) == 0:
            if (time.monotonic() - self.started) * 1000.0 > self.max_ms:
                raise BudgetExceeded("time budget exhausted")

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0


@dataclass(frozen=True)
class CompatibilityGraph:
    """The graph on all k-subsets of [n], adjacent when they intersect.

    Vertex i is ``verts[i]``, the i-th k-set in canonical order, and
    ``adj[i]`` its neighbours as an index bitset; a clique is an index
    bitset too, bit i standing for ``verts[i]``.  ``incidence`` is that
    of the complete family ``verts``: entry v-1 marks the k-sets through v.
    """

    params: FamilyParams
    verts: tuple[Mask, ...]
    incidence: tuple[int, ...]
    adj: tuple[int, ...]

    def edges(self, clique: int) -> tuple[Mask, ...]:
        """The clique's k-sets, in canonical order."""
        verts, out = self.verts, []
        while clique:
            low = clique & -clique
            out.append(verts[low.bit_length() - 1])
            clique ^= low
        return tuple(out)

    def family(self, clique: int) -> Family:
        return Family(self.params, self.edges(clique))

    @cached_property
    def transpositions(self) -> tuple[DeltaSwaps, ...]:
        """The n-1 adjacent transpositions (i i+1) of [n], 1 <= i < n, as
        maps of cliques; they generate every relabeling of [n].

        A transposition swaps the k-sets holding exactly one of i and i+1
        in pairs (j, j + d), and fixes the rest.  It is stored as delta
        swaps (Knuth, TAOCP 7.1.3): one ``(d, low)`` per distance d, bit j
        of ``low`` set for each such pair; at most k distances occur.
        """
        index = {e: j for j, e in enumerate(self.verts)}
        out = []
        for i in range(1, self.params.n):
            lo, pair = bit(i), bit(i) | bit(i + 1)
            lows: dict[int, int] = {}
            for j, e in enumerate(self.verts):
                if e & pair == lo:  # e holds i, not i+1: it moves up to e - i + (i+1)
                    d = index[e ^ pair] - j
                    lows[d] = lows.get(d, 0) | 1 << j
            out.append(tuple(lows.items()))
        return tuple(out)

    @cached_property
    def swaps(self) -> tuple[DeltaSwaps, ...]:
        """The n-2 :attr:`transpositions` that fix [k] setwise: all but (k k+1)."""
        k = self.params.k
        return self.transpositions[: k - 1] + self.transpositions[k:]

    def images(self, clique: int, maps: Optional[tuple[DeltaSwaps, ...]] = None) -> Iterator[int]:
        """The clique's image under each of ``maps`` (default :attr:`swaps`), in order."""
        for moves in self.swaps if maps is None else maps:
            image = clique
            for d, low in moves:
                t = (image ^ image >> d) & low  # pairs whose two bits differ
                image ^= t | t << d
            yield image

    def orbit(self, clique: int) -> set[int]:
        """The clique's images under every relabeling of [n]: its closure
        under :attr:`transpositions`."""
        found, todo = {clique}, [clique]
        while todo:
            for image in self.images(todo.pop(), self.transpositions):
                if image not in found:
                    found.add(image)
                    todo.append(image)
        return found

    def containment(self, d: int) -> Containment:
        """Per d-subset S of [n], canonical order, the vertices whose k-set
        holds S: the AND of the incidence bitsets of S's members."""
        n, k = self.params.n, self.params.k
        if not (1 <= d <= k):
            raise ValueError(f"require 1 <= d <= k, got d={d}")
        inc, dsets = self.incidence, tuple(iter_ksubsets(n, d))
        holders = tuple(reduce(and_, [inc[v - 1] for v in labels(s)]) for s in dsets)
        return Containment(dsets, holders)


@dataclass(frozen=True)
class Containment:
    """The d-sets of [n] in canonical order, each with the index bitset of
    the compatibility-graph vertices that contain it."""

    dsets: tuple[Mask, ...]
    holders: tuple[int, ...]

    def min_degree(self, clique: int) -> tuple[int, Mask]:
        """delta_d of the clique's family and the first d-set attaining it,
        as ``oracles.min_degree`` gives them for that family."""
        degrees = [(clique & h).bit_count() for h in self.holders]
        low = min(degrees)
        return low, self.dsets[degrees.index(low)]

    def below(self, clique: int, t: int) -> bool:
        """Whether some d-set has fewer than t holders in the clique, that
        is ``min_degree(clique)[0] < t``; stops at the first such d-set."""
        return any(map(lt, map(int.bit_count, map(and_, self.holders, repeat(clique))), repeat(t)))


def compatibility_graph(n: int, k: int) -> CompatibilityGraph:
    """The graph on the complete family of k-sets, read off its incidence:
    ``adj[i]`` ORs the incidence bitsets of ``verts[i]``'s vertices, less
    bit i (always set there).  Guarded at C(n, k) <= 10^4, which bounds
    the C(n, k)^2 adjacency bits and the Bron-Kerbosch walk over them.
    """
    params = FamilyParams(n, k)
    total = comb(n, k)
    if total > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"C({n},{k}) = {total} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    complete = Family(params, tuple(iter_ksubsets(n, k)))
    inc = complete.incidence
    adj = tuple(
        reduce(or_, [inc[v - 1] for v in labels(e)]) ^ (1 << i) for i, e in enumerate(complete.edges)
    )
    return CompatibilityGraph(params, complete.edges, inc, adj)


def _bron_kerbosch_pivot(
    adj: tuple[int, ...], r: int, p: int, x: int, budget: Optional[Budget]
) -> Iterator[int]:
    """Maximal cliques containing ``r``, as vertex-index masks, via pivoting.

    ``r`` is a clique, ``p`` its common neighbours still to try and ``x``
    those already covered; (0, all, 0) gives every maximal clique.
    """

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if budget is not None:
            budget.charge_node()
        if not p and not x:
            yield r
            return
        px = p | x
        pivot, best = -1, -1
        q = px
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            score = (p & adj[u]).bit_count()
            if score > best:
                pivot, best = u, score
        cand = p & ~adj[pivot]
        while cand:
            vb = cand & -cand
            v = vb.bit_length() - 1
            cand ^= vb
            yield from expand(r | vb, p & adj[v], x & adj[v])
            p ^= vb
            x |= vb

    yield from expand(r, p, x)


def maximal_cliques(
    graph: CompatibilityGraph,
    dedup_mode: str = "labeled",
    budget: Optional[Budget] = None,
) -> Iterator[int]:
    """Stream the maximal cliques of the compatibility graph, as index bitsets.

    These are exactly the maximal intersecting families.  With
    ``dedup_mode="canonical"`` one representative per relabeling class
    is emitted: the walk is started from the clique {[k]} (vertex 0 in
    colex order) and so visits only the maximal families that contain
    [k] = {1..k}.  Every class has such a member, since any nonempty
    family relabels to one holding [k].  The labeled walk pivots on
    vertex 0 at its root (all degrees are equal), so this is its first
    branch and the representatives are the ones it meets first.  Every
    later root branch holds vertex 0 in its excluded set, so the labeled
    walk emits every clique holding [k] before any clique without it.

    The graph's :attr:`swaps` fix [k], so they map the walk's cliques to
    the walk's cliques.  A clique with an image among the cliques visited
    before it is isomorphic to that one, whose form is in ``seen``
    already, so it is passed over without a form: 45 of the 512 anchored
    families at (6,3) are formed, 126 of 1,860 at (7,3) and 132 of 4,709
    at (8,3).  Its images are tested before it joins the visited set,
    since a swap that fixes a clique has the clique as its image.
    """
    if dedup_mode not in ("labeled", "canonical"):
        raise ValueError(f"unknown dedup mode {dedup_mode!r}")
    adj = graph.adj
    if dedup_mode == "labeled":
        yield from _bron_kerbosch_pivot(adj, 0, (1 << len(adj)) - 1, 0, budget)
        return
    n, members = graph.params.n, member_table(graph.verts)
    seen: set[tuple[Mask, ...]] = set()
    visited: set[int] = set()
    for clique in _bron_kerbosch_pivot(adj, 1, adj[0], 0, budget):  # [k] is vertex 0
        known = not visited.isdisjoint(graph.images(clique))
        visited.add(clique)
        if known:  # a swap maps an earlier clique here: its form is in seen already
            continue
        form = canonical_form(n, graph.edges(clique), members)
        if form not in seen:
            seen.add(form)
            yield clique


def enumerate_maximal_intersecting(
    n: int,
    k: int,
    dedup_mode: str = "labeled",
    budget: Optional[Budget] = None,
) -> Iterator[Family]:
    """Stream the maximal intersecting k-uniform families on [n], as the
    families of :func:`maximal_cliques` (same modes, same order).

    Guarded at C(n, k) <= 10^4 so the graph stays buildable.
    """
    graph = compatibility_graph(n, k)
    for clique in maximal_cliques(graph, dedup_mode, budget):
        yield graph.family(clique)


def is_maximal_intersecting(fam: Family) -> bool:
    """Saturation re-check: intersecting, and no outside k-set fits."""
    if not is_intersecting(fam):
        return False
    for c in iter_ksubsets(fam.params.n, fam.params.k):
        if c not in fam and all(c & e for e in fam.edges):
            return False
    return True


@dataclass(frozen=True)
class EnumerationReport:
    params: FamilyParams
    families_found: int
    max_delta: dict[int, tuple[int, int]]  # d -> (value, index of first achiever)
    dedup_mode: str
    elapsed_ms: float


def enumeration_report(
    n: int,
    k: int,
    dedup_mode: str = "labeled",
    ds: Optional[list[int]] = None,
    on_family: Optional[Callable[[int, Family], None]] = None,
) -> EnumerationReport:
    """Consume the enumeration stream and record, per d, the maximum delta_d.

    The value is independent of stream order; the index stored beside it
    is that of the first family reaching it, so it depends on the order
    (and, in canonical mode, on which member of each class is emitted).
    """
    if ds is None:
        ds = list(range(1, k))
    start = time.monotonic()
    graph = compatibility_graph(n, k)
    tables = [(d, graph.containment(d)) for d in ds]
    count = 0
    best: dict[int, tuple[int, int]] = {}
    for idx, clique in enumerate(maximal_cliques(graph, dedup_mode)):
        count += 1
        fam = graph.family(clique)
        if not is_maximal_intersecting(fam):
            raise AssertionError("enumerator emitted a non-maximal or non-intersecting family")
        for d, table in tables:
            if d in best and table.below(clique, best[d][0] + 1):
                continue
            val, _ = table.min_degree(clique)
            if d not in best or val > best[d][0]:
                best[d] = (val, idx)
        if on_family is not None:
            on_family(idx, fam)
    elapsed = (time.monotonic() - start) * 1000.0
    return EnumerationReport(
        params=FamilyParams(n, k),
        families_found=count,
        max_delta=best,
        dedup_mode=dedup_mode,
        elapsed_ms=elapsed,
    )
