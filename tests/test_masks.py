import random
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from ekrlab.masks import (
    fill_to_size,
    iter_ksubsets,
    iter_subsets_within,
    labels,
    mask_of,
    mask_rows,
    row_dtype,
    row_masks,
    smallest_subset,
)


@given(st.sets(st.integers(min_value=1, max_value=300)))
def test_labels_roundtrip(verts):
    assert set(labels(mask_of(verts))) == verts


def test_canonical_order_is_colex():
    # numeric mask order compares largest element first
    assert mask_of([2, 3]) < mask_of([1, 4])
    assert mask_of([1, 2, 3]) < mask_of([1, 2, 4]) < mask_of([3, 4]) | mask_of([1])


def test_iter_ksubsets_matches_itertools():
    for n in range(0, 11):
        for k in range(0, n + 1):
            got = list(iter_ksubsets(n, k))
            want = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
            assert got == want
            assert got == sorted(got)


def test_iter_subsets_within():
    pool = mask_of([2, 5, 7, 9])
    got = list(iter_subsets_within(pool, 2))
    want = sorted(mask_of(c) for c in combinations([2, 5, 7, 9], 2))
    assert got == want
    assert list(iter_subsets_within(pool, 0)) == [0]
    assert list(iter_subsets_within(pool, 5)) == []
    rng = random.Random(0x5B7)
    for _ in range(400):
        members = sorted(rng.sample(range(1, 200), rng.randrange(0, 13)))
        pool = mask_of(members)
        for r in {0, rng.randrange(0, len(members) + 1), len(members), len(members) + 1}:
            want = sorted(mask_of(c) for c in combinations(members, r))
            assert list(iter_subsets_within(pool, r)) == want


def test_smallest_subset_and_fill():
    pool = mask_of([3, 5, 6, 9])
    assert labels(smallest_subset(pool, 2)) == (3, 5)
    grown = fill_to_size(mask_of([4]), 3, pool)
    assert labels(grown) == (3, 4, 5)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_gosper_count(n, k):
    from math import comb

    assert sum(1 for _ in iter_ksubsets(n, k)) == (comb(n, k) if k <= n else 0)


class TestRowMasks:
    """``row_masks`` against ``mask_of`` on each side of the uint64 route."""

    @staticmethod
    def rows(sets, dtype, width):
        import numpy as np

        return np.array([[v - 1 for v in s] for s in sets], dtype).reshape(len(sets), width)

    def test_uint64_boundary(self):
        # index 63 (label 64) is the last the uint64 route takes; 64 folds
        for dtype in ("uint8", "uint16"):
            for sets in ([[64, 1, 2], [3, 64, 40]], [[65, 1, 2], [3, 64, 40]], [[1, 2, 3], [300, 2, 65]]):
                if dtype == "uint8" and max(map(max, sets)) > 256:
                    continue
                rows = self.rows(sets, dtype, 3)
                assert row_masks(rows) == [mask_of(s) for s in sets]
                assert row_masks(rows[:, ::-1]) == [mask_of(s) for s in sets]  # any order within a row

    def test_random_rows(self):
        rng = random.Random(31)
        for dtype, top in (("uint8", 256), ("uint16", 1000)):
            for width in range(5):
                sets = [rng.sample(range(1, rng.choice((64, 65, top)) + 1), width) for _ in range(20)]
                assert row_masks(self.rows(sets, dtype, width)) == [mask_of(s) for s in sets]

    def test_zero_rows_and_zero_width(self):
        assert row_masks(self.rows([], "uint8", 3)) == []
        assert row_masks(self.rows([[]] * 4, "uint8", 0)) == [0] * 4  # the r = 0 sample

    def test_mask_rows_inverts_row_masks(self):
        rng = random.Random(32)
        for n, k in ((5, 5), (64, 3), (65, 2), (256, 4), (257, 3), (1000, 6)):
            masks = sorted({mask_of(rng.sample(range(1, n + 1), k)) for _ in range(30)})
            rows = mask_rows(masks, n, k)
            assert rows.dtype == row_dtype(n) and rows.shape == (len(masks), k)
            assert rows.tolist() == [[v - 1 for v in labels(m)] for m in masks]
            assert row_masks(rows) == masks
        assert mask_rows([], 70, 3).shape == (0, 3)
