"""Exact thresholds and bound formulas.

All irrational terms are rounded up through integer root comparisons,
never floating point, so every threshold here is an integer upper bound
on the corresponding real-valued expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb, isqrt


def ceil_triangular_root(k: int) -> int:
    """Smallest m >= 0 with m(m+1)/2 >= k; equals ceil((sqrt(8k+1)-1)/2)."""
    m = floor_triangular_root(k)
    return m if m * (m + 1) >= 2 * k else m + 1


def floor_triangular_root(k: int) -> int:
    """Largest m >= 0 with m(m+1)/2 <= k; equals floor((sqrt(8k+1)-1)/2).

    Exact, as m(m+1)/2 <= k holds just when 2m+1 <= isqrt(8k+1).
    """
    if k <= 0:
        return 0
    return (isqrt(8 * k + 1) - 1) // 2


def ceil_cbrt_poly(a: int, b: int, k: int) -> int:
    """Smallest integer >= a*k^(2/3) + b*k^(1/3), exactly.

    With t = k^(1/3), the value A = a*t^2 + b*t satisfies
    A^3 = a^3 k^2 + b^3 k + 3ab k A, and A >= 2*sqrt(ab*k) puts it on
    the increasing branch of X^3 - 3abk*X, so "A <= M" is decided by
    M^3 - 3abk*M >= a^3 k^2 + b^3 k for candidates M past sqrt(abk).
    """
    if a < 0 or b < 0 or k < 0:
        raise ValueError("nonnegative arguments required")
    if k == 0 or (a == 0 and b == 0):
        return 0
    rhs = a**3 * k * k + b**3 * k
    triple = 3 * a * b * k
    lo = isqrt(a * b * k) + 1 if a * b else 1
    hi = (a + b) * k + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**3 - triple * mid >= rhs:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sqrt_term(k: int) -> int:
    """The ceil((sqrt(8k+1)-1)/2) term of the codegree-(k-1) thresholds."""
    return ceil_triangular_root(k)


def cbrt_mix_term(k: int) -> int:
    """The ceil(7*k^(2/3) + 34*k^(1/3)) term of the codegree-(k-2) thresholds."""
    return ceil_cbrt_poly(7, 34, k)


def x_param(k: int) -> int:
    """Phase-1 window width ceil(5*k^(2/3)) of the k-2 core shrink."""
    return ceil_cbrt_poly(5, 0, k)


def ell_param(k: int) -> int:
    """Propagation step ceil(k^(2/3)) - 2 of the k-2 certification."""
    return ceil_cbrt_poly(1, 0, k) - 2


def certify_threshold_k1(k: int) -> int:
    """Smallest n at which codegree-(k-1) star certification applies (k >= 2)."""
    if k < 2:
        raise ValueError("k >= 2 required")
    return 2 * k + sqrt_term(k) + 3


def shrink_threshold_k1(k: int) -> int:
    """Ground-set size needed by the k-1 core-shrinking construction."""
    if k < 2:
        raise ValueError("k >= 2 required")
    return k + sqrt_term(k) + 2


def shrink_vertex_bound_k1(k: int) -> int:
    """Vertex budget of the subfamily produced by the k-1 core shrink."""
    if k < 2:
        raise ValueError("k >= 2 required")
    return k + sqrt_term(k) + 2


def certify_threshold_k2(k: int) -> int:
    """Smallest n at which codegree-(k-2) star certification applies (k >= 3)."""
    if k < 3:
        raise ValueError("k >= 3 required")
    return 2 * k + cbrt_mix_term(k) + 162


def shrink_threshold_k2(k: int) -> int:
    """Ground-set size needed by the k-2 core-shrinking construction."""
    if k < 3:
        raise ValueError("k >= 3 required")
    return 2 * k + cbrt_mix_term(k) + 160


def shrink_vertex_bound_k2(k: int) -> int:
    """Vertex budget of the subfamily produced by the k-2 core shrink."""
    if k < 3:
        raise ValueError("k >= 3 required")
    return k + cbrt_mix_term(k) + 160


def codegree_bound(n: int, k: int, d: int) -> int:
    """The codegree bound C(n-d-1, k-d-1) on the minimum d-degree."""
    if k - d - 1 < 0 or n - d - 1 < 0:
        return 0
    return comb(n - d - 1, k - d - 1)


def codegree_threshold(k: int, d: int) -> int:
    """Ground-set threshold 2k+2d-3 of the general codegree bound (k > d >= 2)."""
    if not (k > d >= 2):
        raise ValueError("require k > d >= 2")
    return 2 * k + 2 * d - 3


def vertex_degree_threshold(k: int) -> int:
    """Threshold n > 2k for the minimum vertex-degree bound, as smallest valid n."""
    return 2 * k + 1


def applicable_threshold(k: int, d: int) -> int:
    """Smallest n at which some proven bound on delta_d applies."""
    if not (1 <= d < k):
        raise ValueError("require 1 <= d < k")
    if d == 1:
        return vertex_degree_threshold(k)
    thr = codegree_threshold(k, d)
    if d == k - 1 and k >= 2:
        thr = min(thr, certify_threshold_k1(k))
    if d == k - 2 and k >= 3:
        thr = min(thr, certify_threshold_k2(k))
    return thr


def ekr_bound(n: int, k: int) -> int:
    """Maximum size C(n-1, k-1) of an intersecting family for n >= 2k."""
    return comb(n - 1, k - 1)


def hilton_milner_bound(n: int, k: int) -> int:
    """Maximum size of a non-star intersecting family for n >= 2k+1."""
    return comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1


@dataclass(frozen=True)
class BoundRow:
    k: int
    d: int
    threshold: int
    bound_at_threshold: int


def bound_table(k_values: list[int], d_rule: str) -> list[BoundRow]:
    """Thresholds and bound values over a k-range.

    ``d_rule`` is "k-1", "k-2", or "d=<int>" for a fixed codegree size.
    Exact arbitrary-precision binomial arithmetic throughout.
    """
    offset = {"k-1": 1, "k-2": 2}.get(d_rule)
    if offset is None and not re.fullmatch(r"d=[+-]?\d+", d_rule):
        raise ValueError(f"unknown d rule {d_rule!r}")
    fixed = int(d_rule[2:]) if offset is None else None
    rows = []
    for k in k_values:
        d = fixed if offset is None else k - offset
        if not (1 <= d < k):
            continue
        thr = applicable_threshold(k, d)
        rows.append(BoundRow(k=k, d=d, threshold=thr, bound_at_threshold=codegree_bound(thr, k, d)))
    return rows
