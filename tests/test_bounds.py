import decimal
import math

import pytest

from ekrlab.bounds import (
    applicable_threshold,
    bound_table,
    cbrt_mix_term,
    ceil_cbrt_poly,
    ceil_triangular_root,
    certify_threshold_k1,
    certify_threshold_k2,
    codegree_bound,
    codegree_threshold,
    ekr_bound,
    ell_param,
    floor_triangular_root,
    hilton_milner_bound,
    shrink_threshold_k1,
    shrink_threshold_k2,
    shrink_vertex_bound_k1,
    shrink_vertex_bound_k2,
    sqrt_term,
    x_param,
)


def test_triangular_roots_match_float_formula():
    for k in range(1, 20000):
        exact = math.ceil((math.sqrt(8 * k + 1) - 1) / 2)
        assert ceil_triangular_root(k) == exact
        assert floor_triangular_root(k) == math.floor((math.sqrt(8 * k + 1) - 1) / 2)


def test_triangular_roots_satisfy_their_definitions_exactly():
    # floor: f(f+1)/2 <= k < (f+1)(f+2)/2; ceil: (c-1)c/2 < k <= c(c+1)/2
    m = math.isqrt(2 * 10**40)
    triangular = [j * (j + 1) // 2 for j in range(m - 50, m + 50)]
    near_1e40 = [*range(10**40 - 2000, 10**40 + 2000), *(t + dt for t in triangular for dt in (-1, 0, 1))]
    assert ceil_triangular_root(0) == floor_triangular_root(0) == 0
    for k in [*range(1, 10**5 + 1), *near_1e40]:
        f, c = floor_triangular_root(k), ceil_triangular_root(k)
        assert f * (f + 1) <= 2 * k < (f + 1) * (f + 2)
        assert (c - 1) * c < 2 * k <= c * (c + 1)


def test_k1_thresholds():
    assert certify_threshold_k1(2) == 9
    assert certify_threshold_k1(3) == 11
    assert shrink_vertex_bound_k1(3) == 7
    assert shrink_threshold_k1(3) == 7
    with pytest.raises(ValueError):
        certify_threshold_k1(1)


def _decimal_ceil(a, b, k):
    decimal.getcontext().prec = 80
    t = decimal.Decimal(k) ** (decimal.Decimal(1) / 3)
    val = a * t * t + b * t
    c = int(val)
    return c if val == c else c + 1


def test_cbrt_poly_against_high_precision():
    for k in range(1, 3000):
        assert ceil_cbrt_poly(7, 34, k) == _decimal_ceil(7, 34, k)
        assert ceil_cbrt_poly(5, 0, k) == _decimal_ceil(5, 0, k)
        assert ceil_cbrt_poly(1, 0, k) == _decimal_ceil(1, 0, k)
        assert ceil_cbrt_poly(0, 34, k) == _decimal_ceil(0, 34, k)


def test_k2_thresholds_exact_values():
    assert certify_threshold_k2(3) == 232
    assert certify_threshold_k2(8) == 274
    assert certify_threshold_k2(27) == 381
    # exact cube roots make k = 8, 27 exactly representable
    assert cbrt_mix_term(8) == 7 * 4 + 34 * 2
    assert cbrt_mix_term(27) == 7 * 9 + 34 * 3
    assert x_param(3) == 11 and x_param(8) == 20 and x_param(27) == 45
    assert ell_param(3) == 1 and ell_param(8) == 2 and ell_param(27) == 7


def test_threshold_size_bound_slack():
    for k in (3, 4, 8, 27, 100):
        assert certify_threshold_k2(k) - shrink_threshold_k2(k) == 2
        assert shrink_threshold_k2(k) - shrink_vertex_bound_k2(k) == k


def test_k1_window_overlap_leaves_room_for_the_split():
    # certify_star_k1 splits the n-2k-1 shared window vertices into two
    # halves of at least (ell+1)//2 + 1, with ell = sqrt_term(k) - 1
    for k in range(2, 2000):
        ell = sqrt_term(k) - 1
        assert certify_threshold_k1(k) - 2 * k >= ell + 3
        assert (certify_threshold_k1(k) - 2 * k - 1) // 2 >= (ell + 1) // 2 + 1


def test_codegree_bound_values():
    assert codegree_bound(10, 4, 2) == 7
    for n, k in [(9, 3), (12, 5)]:
        assert codegree_bound(n, k, k - 1) == 1
        assert codegree_bound(n, k, k - 2) == n - k + 1
    assert ekr_bound(7, 3) == 15
    assert hilton_milner_bound(7, 3) == 13


def test_codegree_threshold():
    assert codegree_threshold(3, 2) == 7
    with pytest.raises(ValueError):
        codegree_threshold(3, 1)


def test_applicable_threshold_prefers_smallest():
    assert applicable_threshold(3, 2) == 7  # general 2k+2d-3 beats the k-1 route at k=3
    assert applicable_threshold(3, 1) == 7  # n > 2k
    assert applicable_threshold(20, 19) == certify_threshold_k1(20)  # sqrt term wins for large k
    assert applicable_threshold(20, 18) == certify_threshold_k2(20) or applicable_threshold(
        20, 18
    ) == codegree_threshold(20, 18)


def test_bound_table_rules():
    rows = bound_table(list(range(2, 7)), "k-1")
    assert [r.bound_at_threshold for r in rows] == [1] * 5
    rows = bound_table([4, 5], "d=2")
    assert all(r.d == 2 for r in rows)
    with pytest.raises(ValueError):
        bound_table([4], "bogus")
    # the rule is parsed once, before any k: its own message, even for no k
    with pytest.raises(ValueError, match="unknown d rule 'd=x'"):
        bound_table([4], "d=x")
    with pytest.raises(ValueError, match="unknown d rule 'bogus'"):
        bound_table([], "bogus")
