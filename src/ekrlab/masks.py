"""Bitmask subsets of a ground set {1, ..., n}.

A subset is a plain ``int``: bit ``i`` set means vertex ``i + 1`` is a
member.  Python ints are arbitrary precision, so the same code covers
n <= 64 (single machine word under the hood) and the n ~ 232 ground sets
the certification procedures need.  Canonical order of subsets is the
numeric order of their masks, i.e. colexicographic order on the sets.

The one numpy form of sets is label rows: a matrix with one set's vertex
indices (label - 1) per row.  ``row_masks`` and ``mask_rows`` convert
between rows and masks, importing numpy only when they run.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from operator import lshift, or_
from typing import Iterable, Iterator, Sequence

Mask = int


def bit(vertex: int) -> Mask:
    """Mask of the single vertex (1-based label)."""
    return 1 << (vertex - 1)


def mask_of(vertices: Iterable[int]) -> Mask:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def labels(m: Mask) -> tuple[int, ...]:
    """Sorted 1-based labels of the mask's members."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


def row_dtype(n: int):
    """The dtype of label rows on [n]: the smallest unsigned one that holds n - 1 (uint8 up to n = 256)."""
    import numpy as np

    return np.min_scalar_type(n - 1)


def row_masks(rows) -> list[Mask]:
    """The masks of label rows, whose indices must be distinct in each row:
    as uint64 when every index is below 64, else folded column by column
    at C level, with no n-bit row per set."""
    import numpy as np

    if not rows.size or rows.max() < 64:  # an empty OR is 0
        bits = np.left_shift(np.uint64(1), rows.astype(np.uint64))
        return np.bitwise_or.reduce(bits, axis=1).tolist()
    cols = rows.T.tolist()
    acc = map(lshift, repeat(1), cols[0])
    for col in cols[1:]:
        acc = map(or_, acc, map(lshift, repeat(1), col))
    return list(acc)


def mask_rows(masks: Sequence[Mask], n: int, k: int):
    """The k-sets ``masks`` of [n] as label rows, ascending along each row:
    the set bits of the masks' nonzero bytes (one uint64 array when n <=
    64, else ``to_bytes``), read off in order."""
    import numpy as np

    width = 8 if n <= 64 else (n + 7) // 8  # bytes per mask
    if n <= 64:
        data = np.array(masks, "<u8").view(np.uint8)
    else:
        data = np.frombuffer(b"".join(map(int.to_bytes, masks, repeat(width), repeat("little"))), np.uint8)
    at = np.flatnonzero(data != 0)  # the nonzero bytes, row by row
    bits = np.flatnonzero(np.unpackbits(data[at, None], axis=1, bitorder="little").view(bool))
    cols = (at[bits >> 3] % width) * 8 + (bits & 7)
    return cols.reshape(len(masks), k).astype(row_dtype(n))


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def popcount(m: Mask) -> int:
    return m.bit_count()


def iter_bits(m: Mask) -> Iterator[Mask]:
    """Single-bit masks of ``m``, ascending."""
    while m:
        low = m & -m
        yield low
        m ^= low


def lowest_vertex(m: Mask) -> int:
    """Smallest 1-based label in a nonempty mask."""
    return (m & -m).bit_length()


def smallest_subset(m: Mask, r: int) -> Mask:
    """The ``r`` lowest members of ``m`` (requires popcount(m) >= r)."""
    out = 0
    for _ in range(r):
        low = m & -m
        out |= low
        m ^= low
    return out


def fill_to_size(base: Mask, size: int, pool: Mask) -> Mask:
    """Grow ``base`` to ``size`` members using the lowest bits of ``pool``."""
    need = size - base.bit_count()
    if need < 0:
        raise ValueError("base already larger than requested size")
    avail = pool & ~base
    return base | smallest_subset(avail, need)


def iter_ksubsets(n: int, k: int) -> Iterator[Mask]:
    """All k-subsets of {1..n} in canonical (numeric mask) order.

    Gosper's hack: same-popcount masks enumerate in increasing value,
    which is colex order on the underlying sets.
    """
    if k == 0:
        yield 0
        return
    if k > n:
        return
    limit = 1 << n
    c = (1 << k) - 1
    while c < limit:
        yield c
        u = c & -c
        v = c + u
        c = v + (((v ^ c) // u) >> 2)


def iter_subsets_within(pool: Mask, r: int) -> Iterator[Mask]:
    """All r-subsets of ``pool``'s members in canonical order.

    Colex order directly: the highest member ascends in the outermost
    loop, and the members below it come from the same enumeration over
    the pool's lower members.
    """
    positions = list(iter_bits(pool))
    if r == 0:
        yield 0
    elif r <= len(positions):
        yield from _subsets_below(positions, len(positions), r)


def unrank_subset(positions: list[Mask], r: int, rank: int) -> Mask:
    """The r-subset of ``positions`` (single-bit masks, ascending) at index
    ``rank`` of canonical order; requires rank < C(len(positions), r).

    Colex unranking: the top member is ``positions[p]`` for the largest p
    with C(p, r) <= rank, and the members below it are the subset at index
    rank - C(p, r) among the (r-1)-subsets of ``positions[:p]``.
    """
    out, p = 0, len(positions)
    for t in range(r, 0, -1):
        p -= 1
        while comb(p, t) > rank:
            p -= 1
        out |= positions[p]
        rank -= comb(p, t)
    return out


def _subsets_below(positions: list[Mask], top: int, r: int) -> Iterator[Mask]:
    """The r-subsets (r >= 1) of ``positions[:top]`` in canonical order."""
    if r == 1:
        yield from positions[:top]
        return
    for t in range(r - 1, top):
        high = positions[t]
        for rest in _subsets_below(positions, t, r - 1):
            yield high | rest
