"""Cutting maps, splitting and displacement."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conecheck import cutting
from conecheck.cutting import (
    IdentityInputError,
    OutOfRangeError,
    cut,
    cut_images,
    displaced_set,
    split,
    verify_cut_lemmas,
)
from conecheck.perms import IDENTITY, Permutation, compose, supp_norm
from conecheck.report import RunConfig
from conecheck.suites import run_cutting

perm_strategy = st.builds(
    lambda images: Permutation.from_images(tuple(images)),
    st.permutations(range(9)),
)


def all_perms(degree):
    return [Permutation.from_images(t) for t in itertools.permutations(range(degree))]


class TestCut:
    def test_three_cycle(self):
        # direct evaluation of the three-case definition: threshold is 2,
        # 1 -> 2 stays, 2 -> 3 routes to its first return sigma^2(2) = 1
        result = cut(Permutation.parse("(1 2 3)"), 1)
        assert result.image == Permutation.parse("(1 2)")
        assert result.erased_points == (3,)

    def test_zero_is_identity_map(self):
        sigma = Permutation.parse("(2 5)(3 7 4)")
        assert cut(sigma, 0).image == sigma
        assert cut(sigma, 0).erased_points == ()

    def test_cut_beyond_support(self):
        assert cut(Permutation.parse("(1 2 3)"), 5).image.is_identity()
        assert cut(Permutation.parse("(1 2 3)"), 5).erased_points == (3, 2, 1)

    def test_erased_points_are_largest_support_descending(self):
        sigma = Permutation.parse("(1 9)(4 6 2)")
        assert cut(sigma, 2).erased_points == (9, 6)

    @given(perm_strategy, st.integers(0, 10))
    def test_support_shrinks(self, sigma, k):
        image = cut(sigma, k).image
        supp = sigma.support()
        assert set(image.support()) <= set(supp[: max(len(supp) - k, 0)])
        assert supp_norm(image) <= max(supp_norm(sigma) - k, 0)

    @given(perm_strategy)
    def test_first_return_routing(self, sigma):
        # one cut: every surviving point maps to the first orbit point
        # at or below the new threshold
        if supp_norm(sigma) < 2:
            return
        supp = sigma.support()
        threshold = supp[-2]
        image = cut(sigma, 1).image
        for point in supp[:-1]:
            expected = sigma(point)
            while expected > threshold:
                expected = sigma(expected)
            assert image(point) == expected

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            cut(IDENTITY, -1)


def reference_cuts(rows, k):
    """cut() row by row on a 0-based image array, as an image array."""
    degree = rows.shape[1]
    return np.array(
        [cut(Permutation.from_images(tuple(int(x) for x in r)), k).image.to_images(degree)
         for r in rows],
        dtype=rows.dtype,
    ).reshape(rows.shape)


class TestCutImages:
    @pytest.mark.parametrize("degree", [5, 6])
    def test_matches_cut_exhaustive(self, degree):
        rows = np.array(sorted(itertools.permutations(range(degree))), dtype=np.int16)
        for k in range(9):  # k past every support size included
            assert np.array_equal(cut_images(rows, k), reference_cuts(rows, k)), k

    def test_matches_cut_random_s30(self):
        rng = np.random.default_rng(2020)
        rows = np.array([rng.permutation(30) for _ in range(2000)])
        for k in range(9):
            assert np.array_equal(cut_images(rows, k), reference_cuts(rows, k)), k

    def test_identity_rows(self):
        rows = np.tile(np.arange(7), (3, 1))
        for k in range(4):
            assert np.array_equal(cut_images(rows, k), rows)

    def test_empty_batch(self):
        rows = np.empty((0, 6), dtype=np.int16)
        out = cut_images(rows, 3)
        assert out.shape == (0, 6)
        assert out.dtype == np.int16

    def test_zero_returns_input(self):
        rows = np.array([[1, 2, 0, 4, 3], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
        assert np.array_equal(cut_images(rows, 0), rows)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            cut_images(np.arange(3)[None, :], -1)

    @given(st.integers(0, 12).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=5))),
        st.integers(0, 14))
    def test_matches_cut_property(self, batch, k):
        degree, rows = batch
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), degree)
        assert np.array_equal(cut_images(rows, k), reference_cuts(rows, k))


class TestSplit:
    def test_five_cycle(self):
        sigma = Permutation.parse("(1 2 3 4 5)")
        pair = split(sigma, 2)
        assert pair.recomposed() == sigma
        assert supp_norm(pair.left) <= 2
        assert supp_norm(pair.right) <= 4
        assert pair.left == Permutation.parse("(1 2)")  # frozen construction

    def test_whole_word_prefix(self):
        sigma = Permutation.parse("(1 2 3)(4 5)")
        pair = split(sigma, supp_norm(sigma))
        assert pair.left == sigma
        assert pair.right.is_identity()

    def test_cycle_boundary(self):
        pair = split(Permutation.parse("(1 2)(3 4)"), 2)
        assert pair.left == Permutation.parse("(1 2)")
        assert pair.right == Permutation.parse("(3 4)")

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            split(Permutation.parse("(1 2)"), 3)
        with pytest.raises(OutOfRangeError):
            split(Permutation.parse("(1 2)"), 0)

    def test_exhaustive_s5(self):
        for sigma in all_perms(5):
            n = supp_norm(sigma)
            for k in range(1, n + 1):
                pair = split(sigma, k)
                assert pair.recomposed() == sigma
                assert supp_norm(pair.left) <= k
                assert supp_norm(pair.right) <= n - k + 1


class TestDisplacedSet:
    def test_transposition(self):
        assert displaced_set(Permutation.parse("(1 2)")) == {1}

    def test_three_cycle(self):
        moved = displaced_set(Permutation.parse("(1 2 3)"))
        assert len(moved) == 1  # the odd-cycle case displaces exactly one point

    def test_four_cycle(self):
        assert displaced_set(Permutation.parse("(1 2 3 4)")) == {1, 3}

    def test_identity_rejected(self):
        with pytest.raises(IdentityInputError):
            displaced_set(IDENTITY)

    def test_exhaustive_s6(self):
        for sigma in all_perms(6):
            if sigma.is_identity():
                continue
            moved = displaced_set(sigma)
            assert not {sigma(x) for x in moved} & moved
            assert 3 * len(moved) >= supp_norm(sigma)


class TestAudit:
    def test_same_element_pair(self):
        sigma = Permutation.parse("(1 4 2)(3 6)")
        report = verify_cut_lemmas([(sigma, sigma)], max_k=6)
        assert all(entry["violations"] == 0 for entry in report.values())

    def test_worked_pair(self):
        report = verify_cut_lemmas(
            [(Permutation.parse("(1 2 3)"), Permutation.parse("(1 3 2)"))], max_k=4)
        assert all(entry["violations"] == 0 for entry in report.values())

    def test_exhaustive_s4_pairs(self):
        perms = all_perms(4)
        report = verify_cut_lemmas(itertools.product(perms, perms), max_k=5)
        for entry in report.values():
            assert entry["violations"] == 0
            assert entry["witness"] is None
            assert entry["max_ratio"] <= 1.0

    def test_report_structure(self):
        report = verify_cut_lemmas([], max_k=2)
        for entry in report.values():
            assert set(entry) == {"lemma", "bound", "sample_size", "max_ratio",
                                  "violations", "witness"}

    def test_audit_flags_a_broken_cut(self, monkeypatch):
        # collapsing everything at the first cut breaks the step bound
        # d(c_0 s, c_1 s) <= 2 for long permutations; the audit must say so
        import conecheck.cutting as cutting_module
        from conecheck.cutting import CutResult

        real_cut = cutting_module.cut

        def collapsing_cut(sigma, k):
            if k == 0:
                return CutResult(sigma, ())
            return CutResult(IDENTITY, tuple(reversed(sigma.support())))

        monkeypatch.setattr(cutting_module, "cut", collapsing_cut)
        sigma = Permutation.parse("(1 2 3 4 5 6)")
        report = cutting_module.verify_cut_lemmas([(sigma, sigma)], max_k=3)
        monkeypatch.setattr(cutting_module, "cut", real_cut)
        assert report["step"]["violations"] > 0
        # the first violating sample, formatted exactly as the eager witness was
        assert report["step"]["witness"] == "sigma=(1 2 3 4 5 6) k=0 m=1"
        assert report["norm-decrease"]["witness"] is None

    def test_exhaustive_s5_pinned(self):
        perms = all_perms(5)
        report = verify_cut_lemmas(
            itertools.chain(
                [(Permutation.parse("(1 2 3)"), Permutation.parse("(1 3 2)"))],
                itertools.product(perms, perms),
            ),
            max_k=6,
        )
        assert {name: entry["sample_size"] for name, entry in report.items()} == {
            "step": 302421, "equal-support": 14358, "general": 86406, "norm-decrease": 100807,
        }
        assert {name: entry["max_ratio"] for name, entry in report.items()} == {
            "step": 1.0, "equal-support": 1.0, "general": 0.75, "norm-decrease": 1.0,
        }
        assert all(entry["violations"] == 0 and entry["witness"] is None
                   for entry in report.values())


def test_broken_kernel_fails_both_cut_checks(monkeypatch):
    # a kernel that erases everything at k >= 1 must be caught by the bounds
    # and by the reference cut inside both batched checks
    def collapsing_kernel(images, k):
        images = np.asarray(images)
        if k == 0:
            return images.copy()
        return np.broadcast_to(np.arange(images.shape[1], dtype=images.dtype),
                               images.shape).copy()

    monkeypatch.setattr(cutting, "cut_images", collapsing_kernel)
    rows = {c.check_id: c for c in run_cutting(RunConfig.small())}
    for check_id in ("cutting.random_s30", "cutting.exhaustive_s6"):
        assert rows[check_id].status == "fail", check_id
        assert rows[check_id].witness is not None, check_id
