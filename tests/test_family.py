import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrlab.family
from conftest import (
    random_family,
    ref_covers_size2,
    ref_disjoint_pair,
    ref_enumerate_extensions,
    ref_extension,
    ref_incidence,
    ref_is_intersecting,
    ref_rows,
    ref_run,
    ref_star_violation,
)
from ekrlab.family import (
    Family,
    FamilyParams,
    StarViolation,
    covers_size1,
    covers_size2,
    disjoint_pair,
    is_complete_star_on,
    is_intersecting,
)
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.io import family_text, read_family_text
from ekrlab.masks import full_mask, iter_ksubsets, labels, mask_of
from ekrlab.oracles import ExplicitOracle, link


def fam(n, k, edges):
    return Family.from_labels(FamilyParams(n, k), edges)


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            FamilyParams(3, 4)
        with pytest.raises(ValueError):
            FamilyParams(0, 0)

    def test_full_computed_once(self):
        p = FamilyParams(300, 3)
        assert p.full == full_mask(300)
        assert p.full is p.full
        assert p == FamilyParams(300, 3) and hash(p) == hash(FamilyParams(300, 3))

    def test_edge_size(self):
        with pytest.raises(ValueError, match="size"):
            Family(FamilyParams(4, 2), (mask_of([1, 2, 3]),))

    def test_edge_range(self):
        with pytest.raises(ValueError, match="ground set"):
            Family(FamilyParams(4, 2), (mask_of([4, 5]),))

    def test_sortedness(self):
        with pytest.raises(ValueError, match="increasing"):
            Family(FamilyParams(4, 2), (mask_of([3, 4]), mask_of([1, 2])))


class TestIntersecting:
    def test_shared_vertex(self):
        assert is_intersecting(fam(4, 2, [[1, 2], [1, 3], [1, 4]]))

    def test_witness(self):
        assert disjoint_pair(fam(4, 2, [[1, 2], [3, 4]])) == (mask_of([1, 2]), mask_of([3, 4]))

    def test_all_triples_of_5(self):
        from ekrlab.masks import iter_ksubsets

        f = Family(FamilyParams(5, 3), tuple(iter_ksubsets(5, 3)))
        assert is_intersecting(f)

    def test_first_witness_in_canonical_order(self):
        f = fam(6, 2, [[1, 2], [3, 4], [5, 6]])
        assert disjoint_pair(f) == (mask_of([1, 2]), mask_of([3, 4]))

    def test_random_families_match_reference(self, rng):
        for _ in range(300):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, min(5, n) + 1)
            f = random_family(rng, n, k, rng.randrange(0, 30))
            assert disjoint_pair(f) == ref_disjoint_pair(f)

    def test_late_pair_past_the_first_incidence_block(self):
        # the star at 1 on [20] cut to edges meeting {2,3,4,5}, plus one
        # star edge and one off-center edge that miss each other: 2,513
        # edges whose only disjoint pair sits at positions past 2,048
        star = complete_star(20, 5, 1)
        hub = mask_of([2, 3, 4, 5])
        late, off = mask_of([1, 16, 17, 18, 19]), mask_of([2, 3, 4, 5, 20])
        f = Family.from_masks(star.params, [e for e in star.edges if e & hub] + [late, off])
        assert len(f.edges) > 2048 and f.edges.index(late) > 2048
        assert disjoint_pair(f) == ref_disjoint_pair(f) == (late, off)

    def test_star_with_a_last_disjoint_edge(self):
        star = complete_star(19, 5, 1)
        f = Family.from_masks(star.params, star.edges + (mask_of([15, 16, 17, 18, 19]),))
        assert disjoint_pair(f) == ref_disjoint_pair(f) == (f.edges[0], f.edges[-1])
        assert is_intersecting(star)


class TestCovers1:
    def test_two_common(self):
        c, vac = covers_size1(fam(5, 3, [[1, 2, 3], [1, 2, 4], [1, 2, 5]]))
        assert labels(c) == (1, 2) and not vac

    def test_one_common(self):
        c, vac = covers_size1(fam(5, 3, [[1, 2, 3], [1, 4, 5]]))
        assert labels(c) == (1,) and not vac

    def test_none(self):
        c, vac = covers_size1(fam(6, 3, [[1, 2, 3], [4, 5, 6]]))
        assert c == 0 and not vac

    def test_empty_family_flagged(self):
        c, vac = covers_size1(Family(FamilyParams(4, 2), ()))
        assert c == full_mask(4) and vac


class TestCovers2:
    def test_matching_two(self):
        cov = covers_size2(fam(4, 2, [[1, 2], [3, 4]]), full_mask(4))
        assert set(cov.edges) == {mask_of(p) for p in [(1, 3), (1, 4), (2, 3), (2, 4)]}

    def test_matching_three_has_none(self):
        cov = covers_size2(fam(6, 2, [[1, 2], [3, 4], [5, 6]]), full_mask(6))
        assert cov.edges == ()

    def test_single_edge_within_area(self):
        cov = covers_size2(fam(3, 3, [[1, 2, 3]]), mask_of([1, 2]))
        assert cov.edges == (mask_of([1, 2]),)

    def test_pair_family_on_ground_set(self):
        cov = covers_size2(fam(5, 3, [[1, 2, 3], [1, 4, 5]]), mask_of([1, 2, 4]))
        assert cov.params == FamilyParams(5, 2) and cov.edges == (mask_of([1, 2]), mask_of([1, 4]), mask_of([2, 4]))
        with pytest.raises(ValueError):  # no pair family on one vertex
            covers_size2(fam(1, 1, [[1]]), 1)

    def test_against_double_loop(self, rng):
        for _ in range(60):
            n = rng.randrange(4, 9)
            k = rng.randrange(2, min(4, n) + 1)
            f = random_family(rng, n, k, rng.randrange(1, 9))
            area = rng.randrange(1 << n)
            assert set(covers_size2(f, area).edges) == ref_covers_size2(f, area)
        # the incidence index at the word edge (64, 65 edges) and across
        # build blocks (the (26,4) star has 2,300 edges)
        triples = tuple(iter_ksubsets(9, 3))
        for f in [
            Family(FamilyParams(9, 3), ()),
            Family(FamilyParams(9, 3), triples[:64]),
            Family(FamilyParams(9, 3), triples[:65]),
            complete_star(26, 4, 5),
        ]:
            assert f.incidence == ref_incidence(f)
            full = f.params.full
            assert set(covers_size2(f, full).edges) == ref_covers_size2(f, full)


class TestCompleteStarOn:
    def test_full_star(self):
        assert is_complete_star_on(complete_star(7, 3, 1), full_mask(7), 1) is None

    def test_missing_edge(self):
        star = complete_star(7, 3, 1)
        sv = is_complete_star_on(Family(star.params, star.edges[1:]), full_mask(7), 1)
        assert sv.kind == "missing" and labels(sv.edge) == (1, 2, 3)

    def test_offending_edge(self):
        f = fam(7, 3, [[1, 2, 3], [2, 3, 4]])
        sv = is_complete_star_on(f, full_mask(7), 1)
        assert sv.kind == "offending" and labels(sv.edge) == (2, 3, 4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            is_complete_star_on(complete_star(7, 3, 1), mask_of([2, 3, 4]), 1)

    def test_precondition_order(self):
        with pytest.raises(ValueError, match="center"):
            is_complete_star_on(complete_star(7, 3, 1), mask_of([2, 3]), 1)
        with pytest.raises(ValueError, match="smaller"):
            is_complete_star_on(complete_star(7, 3, 1), mask_of([1, 2]), 1)

    @staticmethod
    def check(f, window, center):
        sv = is_complete_star_on(f, window, center)
        assert (None if sv is None else (sv.kind, sv.edge)) == ref_star_violation(f, window, center)
        return sv

    @staticmethod
    def random_window(rng, n, k, center):
        others = [v for v in range(1, n + 1) if v != center]
        return mask_of([center] + rng.sample(others, rng.randrange(k - 1, n)))

    def test_random_families_against_reference(self, rng):
        for _ in range(300):
            n = rng.randrange(3, 10)
            k = rng.randrange(1, min(4, n) + 1)
            center = rng.randrange(1, n + 1)
            window = self.random_window(rng, n, k, center)
            star = [e for e in complete_star(n, k, center).edges if not e & ~window]
            extra = random_family(rng, n, k, rng.randrange(0, 6)).edges
            keep = [e for e in star if rng.random() < 0.9] if rng.random() < 0.5 else star
            self.check(Family.from_masks(FamilyParams(n, k), keep + list(extra)), window, center)
            self.check(random_family(rng, n, k, rng.randrange(0, 12)), window, center)

    def test_star_minus_one_edge(self, rng):
        cases = [(7, 3, 1, full_mask(7)), (9, 4, 5, mask_of([2, 3, 5, 7, 8, 9])), (26, 4, 2, full_mask(26))]
        for _ in range(20):
            n = rng.randrange(4, 12)
            k = rng.randrange(2, min(5, n) + 1)
            center = rng.randrange(1, n + 1)
            cases.append((n, k, center, self.random_window(rng, n, k, center)))
        for n, k, center, window in cases:
            full = complete_star(n, k, center)
            assert self.check(full, window, center) is None
            inside = [i for i, e in enumerate(full.edges) if not e & ~window]
            for i in {inside[0], inside[-1], rng.choice(inside)}:
                f = Family(full.params, full.edges[:i] + full.edges[i + 1 :])
                assert self.check(f, window, center) == StarViolation("missing", full.edges[i])

    def test_missing_edge_search_unranks_log_many(self, monkeypatch):
        calls = []
        real = ekrlab.family.unrank_subset

        def spy(positions, r, rank):
            calls.append(rank)
            return real(positions, r, rank)

        monkeypatch.setattr(ekrlab.family, "unrank_subset", spy)
        star = complete_star(26, 4, 2)
        assert is_complete_star_on(star, full_mask(26), 2) is None
        assert is_complete_star_on(star, mask_of(range(2, 20)), 2) is None
        assert calls == []
        bound = len(star.edges).bit_length() + 1  # the binary search's steps, then the answer
        for i in (0, 1, len(star.edges) // 2, len(star.edges) - 1):
            calls.clear()
            sv = is_complete_star_on(Family(star.params, star.edges[:i] + star.edges[i + 1 :]), full_mask(26), 2)
            assert sv == StarViolation("missing", star.edges[i])
            assert 1 <= len(calls) <= bound


def index_families(rng):
    """(name, family) pairs over n <= 64, 64 < n <= 256 (uint8 rows) and
    n > 256 (uint16 rows): stars, a star less its first, middle or last
    edge, Hilton-Milner and random families (the empty one among them)."""
    out = []
    for n, k in ((9, 3), (40, 4), (70, 3), (300, 2), (6, 1)):
        center = rng.randrange(1, n + 1)
        star = complete_star(n, k, center)
        m = len(star.edges)
        out.append((f"star({n},{k},{center})", star))
        for i in (0, m // 2, m - 1):
            out.append((f"star({n},{k},{center}) minus #{i}", Family(star.params, star.edges[:i] + star.edges[i + 1 :])))
        if k >= 2:
            out.append((f"hm({n},{k})", hilton_milner(n, k)))
        for size in (0, 1, 7, 60):
            sets = {mask_of(rng.sample(range(1, n + 1), k)) for _ in range(size)}
            out.append((f"random({n},{k}) of {len(sets)}", Family.from_masks(star.params, sets)))
    return out


class TestVertexIndex:
    """Label rows, per-vertex runs and the queries read off them, against
    plain scans, on in-memory families and the same families read back."""

    @staticmethod
    def routes(fam, rng):
        """The family in memory, read back, and read back from its lines shuffled."""
        text = family_text(fam)
        head, *lines = text.splitlines(keepends=True)
        rng.shuffle(lines)
        back, shuffled = read_family_text(text), read_family_text(head + "".join(lines))
        assert back == shuffled == fam
        return (("memory", fam), ("reader", back), ("shuffled", shuffled))

    def test_rows_and_runs(self, rng):
        import numpy as np

        for name, fam in index_families(rng):
            for route, f in self.routes(fam, rng):
                assert f.rows.dtype == (np.uint8 if f.params.n <= 256 else np.uint16), (name, route)
                assert f.rows.shape == (len(f.edges), f.params.k) and f.rows.tolist() == ref_rows(f), (name, route)
                for v in range(f.params.n):
                    assert f.run(v).tolist() == ref_run(f, v), (name, route, v)

    def test_extensions_against_scans(self, rng):
        for name, fam in index_families(rng):
            n, k = fam.params.n, fam.params.k
            for route, f in self.routes(fam, rng):
                oracle = ExplicitOracle(f)
                bases = [0, full_mask(n), mask_of(range(1, k + 2))]
                for _ in range(12):
                    e = rng.choice(f.edges) if f.edges else mask_of(rng.sample(range(1, n + 1), k))
                    bases.append(mask_of(rng.sample(labels(e), rng.randrange(0, k + 1))))
                    bases.append(mask_of(rng.sample(range(1, n + 1), rng.randrange(1, k + 1))))
                for base in bases:
                    assert list(oracle.enumerate_extensions(base)) == ref_enumerate_extensions(f, base), (name, route)
                    assert oracle.extension(base) == ref_extension(f, base), (name, route, base)

    def test_star_windows_against_scans(self, rng):
        for name, fam in index_families(rng):
            n, k = fam.params.n, fam.params.k
            common = fam.edges[0] if fam.edges else 1
            for e in fam.edges:
                common &= e
            for route, f in self.routes(fam, rng):
                for _ in range(4):
                    center = (common & -common).bit_length() if common and rng.random() < 0.7 else rng.randrange(1, n + 1)
                    for window in (full_mask(n), TestCompleteStarOn.random_window(rng, n, k, center)):
                        TestCompleteStarOn.check(f, window, center)


class TestLink:
    def test_star_link_is_star_graph(self):
        lg = link(complete_star(6, 3, 1), mask_of([2]))
        assert set(lg.edges) == {mask_of((1, x)) for x in (3, 4, 5, 6)}

    def test_read_off_edges(self):
        f = fam(5, 4, [[1, 2, 3, 4], [1, 2, 3, 5]])
        lg = link(f, mask_of([1, 2]))
        assert set(lg.edges) == {mask_of((3, 4)), mask_of((3, 5))}

    def test_empty_link(self):
        lg = link(fam(6, 3, [[1, 2, 3]]), mask_of([5]))
        assert lg.edges == ()

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            link(complete_star(6, 3, 1), mask_of([1, 2]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intersecting_matches_reference(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    k = data.draw(st.integers(min_value=2, max_value=min(4, n)))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    r = random.Random(seed)
    f = random_family(r, n, k, r.randrange(1, 10))
    assert is_intersecting(f) == ref_is_intersecting(f)
