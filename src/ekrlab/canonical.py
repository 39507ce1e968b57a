"""Canonical forms of labeled k-uniform families under vertex relabeling.

Individualization-refinement in the style of McKay & Piperno, "Practical
graph isomorphism, II" (J. Symb. Comput. 2014), cut down to the small
ground sets (n <= 9) the deduplicated enumeration targets.

Only the support is ordered, since isolated vertices never affect the
edge tuple.  Each call maps the support to positions ``0..s-1`` and
builds every vertex's list of incident edge indices once.

*Refinement.*  Colours are a list indexed by position.  An edge's colour
is the multiset of its vertices' colours, coded as the integer
``sum(1 << (shift * c))``; the distinct edge codes are ranked, and a
vertex's new colour is the rank of (old colour, multiset of incident
edge ranks).  Rounds repeat until the number of colours stops growing.
Every step depends only on colours and incidences, never on labels, so
relabeling the family relabels the refined colouring with it.

*Few orderings.*  The uniform colouring is refined once.  When the
product of its cells' sizes' factorials is at most ``ORDERING_CAP``, the
form is the minimum, over every ordering of the support that keeps the
cells in colour order, of the sorted relabeled edge masks; otherwise the
search below starts from that refined root.  This stays canonical: the
refinement reads no labels, the choice of route reads only cell sizes,
which relabeling keeps, and either route returns a relabeling of the
family, so equal forms still mean isomorphic families.  Most maximal
families need it: after the first refinement, 500 of the 512 anchored
(6,3) families have 4 to 36 orderings, and the direct minimum spares
the search's further refinements (650 against 3,630 ``_refine`` calls
there).  The cap was measured on the anchored (6,3), (7,3) and (8,3)
families (2-core x86 host, median of 7 in-process rounds): 48 took 80,
354 and 1,219 ms against 81, 364 and 1,364 ms at 24 and 82, 372 and
1,470 ms at 144.

*Search.*  A node whose colouring is not discrete individualizes, in
turn, each vertex of its first non-singleton colour cell.  A leaf's
colouring orders the support, and its form is the sorted tuple of the
relabeled edge masks.  The canonical form is the minimum form over all
leaves.  Because the search tree of a relabeled family is the relabeled
tree, two families get equal forms exactly when some relabeling maps one
to the other.

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

from itertools import chain, permutations, product
from math import factorial, prod
from operator import itemgetter

from .masks import Mask, labels

# Largest number of cell-respecting orderings minimized over directly.
ORDERING_CAP = 48


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


def canonical_form(n: int, edges: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """Canonical edge tuple of a labeled family on [n]."""
    if not edges:
        return ()
    support_mask = 0
    for e in edges:
        support_mask |= e
    position = {v: i for i, v in enumerate(labels(support_mask))}
    s = len(position)
    edge_pos = [tuple(position[v] for v in labels(e)) for e in edges]
    incidence: list[list[int]] = [[] for _ in range(s)]
    for i, e in enumerate(edge_pos):
        for v in e:
            incidence[v].append(i)
    shift = max(len(e) for e in edge_pos).bit_length()
    dshift = max(len(inc) for inc in incidence).bit_length()

    # each getter also reads slot s, a 0 past the positions, so that it
    # returns a tuple even for an edge of one vertex
    getters = [itemgetter(s, *e) for e in edge_pos]

    def relabeled(bits: list[int]) -> tuple[Mask, ...]:
        """Sorted edge masks, position ``v`` mapped to ``bits[v]``; ``bits[s]`` must be 0."""
        return tuple(sorted([sum(g(bits)) for g in getters]))

    root = _refine([0] * s, edge_pos, incidence, shift, dshift)
    cells: list[list[int]] = [[] for _ in range(max(root) + 1)]
    for v, c in enumerate(root):
        cells[c].append(v)
    if prod(factorial(len(cell)) for cell in cells) <= ORDERING_CAP:
        forms = []
        for order in product(*map(permutations, cells)):
            bits = [0] * (s + 1)
            for i, v in enumerate(chain.from_iterable(order)):
                bits[v] = 1 << i
            forms.append(relabeled(bits))
        return min(forms)

    leaves: dict[tuple[Mask, ...], tuple[list[int], list[int]]] = {}
    automorphisms: list[list[int]] = []
    jump: int | None = None  # depth of the node to resume at, while unwinding

    def leaf(colors: list[int], path: list[int]) -> None:
        nonlocal jump
        form = relabeled([1 << c for c in colors] + [0])
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
