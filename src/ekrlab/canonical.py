"""Canonical forms of labeled k-uniform families under vertex relabeling.

Individualization-refinement in the style of McKay & Piperno, "Practical
graph isomorphism, II" (J. Symb. Comput. 2014), cut down to the small
ground sets (n <= 9) the deduplicated enumeration targets.

Only the support is ordered, since isolated vertices never affect the
edge tuple.  Each call maps the support to positions ``0..s-1``: an
edge's 0-based labels come from the caller's ``members`` table when it
has one (the canonical walk builds it once from the compatibility
graph's k-sets) and are the positions already when the support is
{1..s}.  It then builds every vertex's packed incidence: the integer
with bit ``width * i`` set for each edge ``i`` through the vertex,
``width`` being 8 when s <= 8 (so a slot is a byte) and s otherwise.  A
vertex's degree is its packed incidence's bit count, and the ranks of
the degrees split the support into degree cells.

*Refinement.*  Colours are a list indexed by position.  An edge's colour
is the multiset of its vertices' colours, coded as the integer
``sum(1 << (shift * c))``; the distinct edge codes are ranked, and a
vertex's new colour is the rank of (old colour, multiset of incident
edge ranks), read from each vertex's list of incident edge indices.
Rounds repeat until the number of colours stops growing.  Every step
depends only on colours and incidences, never on labels, so relabeling
the family relabels the refined colouring with it.  The root colouring
starts from the degree ranks, which is what the first round from the
uniform colouring gives a k-uniform family, so the root takes one round
fewer.

*Few orderings.*  The form is the minimum, over every ordering of the
support that keeps the degree cells in colour order, of the sorted
relabeled edge masks, whenever those cells leave at most
``ORDERING_CAP`` orderings (the product of the cells' sizes'
factorials); this route builds no incidence lists and refines nothing.
When they leave more orderings, the incidence lists are built, the root
refined, and the search below starts from the root.  This stays
canonical: degrees read no labels, the choice of route reads only the
degree cells' sizes, which relabeling keeps, and both routes return a
relabeling of the family, so equal forms still mean isomorphic
families.  The minimum is
built from per-cell shares of one packed vector, whose slot ``i`` holds
edge ``i``'s relabeled mask: putting vertex ``v`` at position ``p`` adds
``packed[v] << p``, and the slots never carry, since an edge's mask is a
sum of distinct bits below ``1 << s``.  The cells take consecutive
blocks of positions in colour order.  Singleton cells have one position
each, so together they add one fixed base vector; a cell of size ``c``
gives one share for each of its ``c!`` orderings of its block.  An
ordering of the support is then the base plus one share per
non-singleton cell, one integer addition each, and its form is its
slots, read by one ``int.to_bytes`` (by shifts when s > 8), sorted.
Most maximal families take the degree cells: 506 of the 512 anchored
(6,3) families, 1,827 of 1,860 at (7,3) and 4,600 of 4,709 at (8,3),
and 44, 120 and 123 of the 45, 126 and 132 of them that the canonical
walk forms (``generators.maximal_cliques`` passes over the families an
anchor-fixing swap maps onto one visited before).  The rest have 720 or
5,040 degree-cell orderings and search.  ``_refine`` runs 60, 381 and
1,522 times per pass over all anchored families, and 10, 74 and 150
times per canonical walk, against 566, 2,208 and 6,122 per pass when
every family with repeated degrees was refined first (3,630, 14,430 and
45,532 with the search alone).  The cap was
measured on the same families (2-core x86 host): per family, the search
took 0.5-0.9 ms and the direct minimum about 2.5-3 us per ordering (0.37
ms at 144 orderings, 2.3-2.5 ms at 720); per pass, median of 7
interleaved in-process rounds with the degree cells first, 144 took 21,
92 and 296 ms against 20, 114 and 472 ms at 48 and 24, 108 and 336 ms
at 720.

*Search.*  A node whose colouring is not discrete individualizes, in
turn, each vertex of its first non-singleton colour cell.  A leaf's
colouring orders the support, and its form is the sorted tuple of the
relabeled edge masks: the slots of the sum of the packed incidences,
each shifted by its vertex's colour.  The canonical form is the minimum
form over all leaves.  Because the search tree of a relabeled family is
the relabeled tree, two families get equal forms exactly when some
relabeling maps one to the other.

*Pruning.*  Two leaves with the same form give an automorphism ``g``:
the map that sends each vertex of the earlier leaf to the vertex at the
same position in the later one.  Every automorphism found is recorded.
At a node that has individualized ``v1..vm``, a child ``u`` is skipped
when the recorded automorphisms that fix ``v1..vm`` pointwise map an
explored sibling onto ``u``.  When a new ``g`` fixes the path of the
deepest node the two leaves share and maps the earlier leaf's branch
there, already searched, onto the current one, the search also returns
to that node at once.  Both rules keep the minimum leaf: an automorphism
that fixes a node's individualized vertices maps the node to itself and
the subtree under child ``w`` onto the subtree under ``g(w)``, leaf for
leaf with equal forms, so a skipped subtree holds no form below the
minimum of one already searched.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations, repeat
from math import factorial, prod
from operator import lshift, or_
from typing import Iterable, Iterator, Mapping, Optional

from .masks import Mask, labels

# Largest number of cell-respecting orderings minimized over directly.
ORDERING_CAP = 144


def _refine(
    colors: list[int],
    edges: list[tuple[int, ...]],
    incidence: list[list[int]],
    shift: int,
    dshift: int,
) -> list[int]:
    """Refine ``colors`` (ranks ``0..c-1`` by position) until stable.

    ``shift`` bits hold one colour's count inside an edge code and
    ``dshift`` bits hold one edge class's count at a vertex.
    """
    ncolors = len(set(colors))
    while True:
        weight = [1 << (shift * c) for c in colors]
        codes = [sum(map(weight.__getitem__, e)) for e in edges]
        rank = {code: i for i, code in enumerate(sorted(set(codes)))}
        eweight = [1 << (dshift * rank[code]) for code in codes]
        keys = [(colors[v], sum(map(eweight.__getitem__, inc))) for v, inc in enumerate(incidence)]
        ranked = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranked[key] for key in keys]
        if len(ranked) == ncolors:
            return colors
        ncolors = len(ranked)


def member_table(edges: Iterable[Mask]) -> dict[Mask, tuple[int, ...]]:
    """Each mask's 0-based labels, ascending: the ``members`` argument of
    :func:`canonical_form` for families whose edges are among ``edges``."""
    return {e: tuple(v - 1 for v in labels(e)) for e in edges}


def _sorted_slots(totals: Iterable[int], m: int, width: int) -> Iterator[list[int]]:
    """Each packed vector's ``m`` slots of ``width`` bits, sorted."""
    if width == 8:
        return map(sorted, map(int.to_bytes, totals, repeat(m), repeat("little")))
    low = (1 << width) - 1
    return (sorted([t >> i & low for i in range(0, m * width, width)]) for t in totals)


def _cells(colors: list[int]) -> list[list[int]]:
    """The positions of each colour ``0..c-1``, in colour order."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _direct_minimum(cells: list[list[int]], packed: list[int], m: int, width: int) -> tuple[Mask, ...]:
    """Minimum sorted relabeled edge tuple over the orderings that keep
    ``cells`` in colour order, vertex ``v`` contributing ``packed[v]``."""
    base = 0
    blocks = []
    offset = 0
    for cell in cells:
        if len(cell) == 1:
            base += packed[cell[0]] << offset
        else:
            blocks.append((offset, [packed[v] for v in cell]))
        offset += len(cell)
    totals = [base]
    for offset, incidences in blocks:
        orders = permutations(range(offset, offset + len(incidences)))
        shares = [sum(map(lshift, incidences, order)) for order in orders]
        totals = [t + share for share in shares for t in totals]
    return tuple(min(_sorted_slots(totals, m, width)))


def canonical_form(
    n: int, edges: tuple[Mask, ...], members: Optional[Mapping[Mask, tuple[int, ...]]] = None
) -> tuple[Mask, ...]:
    """Canonical edge tuple of a labeled k-uniform family on [n].

    ``members``, if given, maps each edge to its 0-based labels (see
    :func:`member_table`), so that a walk forming many families from the
    same k-sets labels each k-set once.
    """
    if not edges:
        return ()
    if members is None:
        members = member_table(edges)
    edge_pos = [members[e] for e in edges]
    support = reduce(or_, edges)
    s = support.bit_count()
    if support & (support + 1):  # the support is not {1..s}: renumber it 0..s-1
        at = [0] * support.bit_length()
        for i, v in enumerate(labels(support)):
            at[v - 1] = i
        edge_pos = [tuple(map(at.__getitem__, e)) for e in edge_pos]
    width = 8 if s <= 8 else s
    packed = [0] * s  # vertex v: bit (width * i) for each edge i through v
    for i, e in enumerate(edge_pos):
        slot = 1 << (width * i)
        for v in e:
            packed[v] |= slot

    degrees = [p.bit_count() for p in packed]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    root = [rank[d] for d in degrees]  # what a first round from the uniform colouring gives
    cells = _cells(root)
    if prod(factorial(len(cell)) for cell in cells) <= ORDERING_CAP:
        return _direct_minimum(cells, packed, len(edge_pos), width)

    incidence: list[list[int]] = [[] for _ in range(s)]
    for i, e in enumerate(edge_pos):
        for v in e:
            incidence[v].append(i)
    shift = max(len(e) for e in edge_pos).bit_length()
    dshift = max(degrees).bit_length()
    root = _refine(root, edge_pos, incidence, shift, dshift)

    leaves: dict[tuple[Mask, ...], tuple[list[int], list[int]]] = {}
    automorphisms: list[list[int]] = []
    jump: int | None = None  # depth of the node to resume at, while unwinding

    def leaf(colors: list[int], path: list[int]) -> None:
        nonlocal jump
        [slots] = _sorted_slots([sum(map(lshift, packed, colors))], len(edge_pos), width)
        form = tuple(slots)
        if form not in leaves:
            leaves[form] = (colors, path)
            return
        seen_colors, seen_path = leaves[form]
        at = [0] * s
        for v, c in enumerate(colors):
            at[c] = v
        g = [at[c] for c in seen_colors]  # earlier leaf -> this leaf
        automorphisms.append(g)
        depth = next(i for i, (a, b) in enumerate(zip(seen_path, path)) if a != b)
        if all(g[seen_path[i]] == path[i] for i in range(depth + 1)):
            jump = depth

    def descend(colors: list[int], path: list[int]) -> None:
        nonlocal jump
        ncolors = max(colors) + 1
        if ncolors == s:
            leaf(colors, path)
            return
        target = next(c for c in range(ncolors) if colors.count(c) > 1)
        orbit = list(range(s))  # orbit ids under the automorphisms fixing path
        absorbed = 0
        explored: list[int] = []
        for u in (v for v in range(s) if colors[v] == target):
            if explored:
                for g in automorphisms[absorbed:]:
                    if all(g[v] == v for v in path):
                        for v in range(s):
                            a, b = orbit[v], orbit[g[v]]
                            if a != b:
                                orbit = [a if o == b else o for o in orbit]
                absorbed = len(automorphisms)
                if any(orbit[w] == orbit[u] for w in explored):
                    continue
            explored.append(u)
            child = colors[:]
            child[u] = ncolors
            descend(_refine(child, edge_pos, incidence, shift, dshift), path + [u])
            if jump is not None:
                if jump < len(path):
                    return
                jump = None

    descend(root, [])
    return min(leaves)
