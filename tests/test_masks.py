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
