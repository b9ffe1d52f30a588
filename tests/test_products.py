"""Free products, direct sums and the single-projection conditions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conecheck import products, suites
from conecheck.products import (
    DirectSum,
    FreeProduct,
    ReducedWord,
    collapse_least,
    cyclic_factor,
    sum_coordinates,
    sum_element,
    support_distance,
    verify_contraction_conditions,
    verify_coordinate_conditions,
)
from conecheck.report import RunConfig
from conecheck.suites import run_products


def z2_z3(projection="collapse"):
    return FreeProduct({
        1: cyclic_factor(2, "discrete", projection),
        2: cyclic_factor(3, "discrete", projection),
    })


def z7_z7():
    return FreeProduct({1: cyclic_factor(7, "word"), 2: cyclic_factor(7, "word")})


class TestReduce:
    def test_cancellation(self):
        fp = z2_z3()
        assert fp.reduce([(1, 1), (1, 1)]).is_identity()

    def test_same_factor_merge(self):
        fp = z2_z3()
        assert fp.reduce([(2, 1), (2, 1)]) == ReducedWord(((2, 2),))

    def test_already_reduced(self):
        fp = z2_z3()
        letters = ((1, 1), (2, 1), (1, 1), (2, 2), (1, 1), (2, 1))
        assert fp.reduce(letters).letters == letters

    def test_identity_letters_dropped(self):
        fp = z2_z3()
        assert fp.reduce([(1, 0), (2, 0)]).is_identity()

    def test_cascading_reduction(self):
        fp = z2_z3()
        # (2:1)(2:2) collapses, exposing (1:1)(1:1) which collapses too
        assert fp.reduce([(1, 1), (2, 1), (2, 2), (1, 1)]).is_identity()


class TestNorms:
    def test_empty_word(self):
        fp = z2_z3()
        assert fp.l1_norm(ReducedWord(())) == 0

    def test_discrete_counts_letters(self):
        fp = z2_z3()
        assert fp.l1_norm(fp.reduce([(1, 1), (2, 1)])) == 2

    def test_integers(self):
        fp = z7_z7()
        word = fp.reduce([(1, 3), (2, -2)])
        assert word == ReducedWord(((1, 3), (2, 5)))
        assert fp.l1_norm(word) == 5


class TestProjections:
    def test_empty_maps_to_empty(self):
        fp = z2_z3()
        assert fp.prefix_project(ReducedWord(())).is_identity()

    def test_single_integer_letter_shrinks(self):
        fp = z7_z7()
        assert fp.prefix_project(fp.reduce([(1, 3)])).is_identity()

    def test_dying_letter_exposes_tail(self):
        fp = z7_z7()
        word = fp.reduce([(1, 1), (2, 5)])
        assert fp.prefix_project(word) == fp.reduce([(2, 5)])

    def test_sum_projection_least_index(self):
        ds = DirectSum({i: cyclic_factor(i, "discrete") for i in (2, 7)})
        g = ds.element({2: 1, 7: 3})
        assert ds.sum_project(g) == ds.element({7: 3})
        assert ds.sum_project(ds.element({})) == ds.element({})
        assert ds.sum_project(ds.element({7: 3})) == ds.element({})


class TestConditions:
    def test_free_product_exhaustive(self):
        fp = z2_z3()
        words = fp.enumerate_words(5)
        report = verify_contraction_conditions(
            fp.prefix_project, words, fp.l1_norm, fp.distance,
            lambda w: w.is_identity(), 1)
        assert report["all_hold"]

    def test_direct_sum_exhaustive(self):
        ds = DirectSum({i: cyclic_factor(i, "discrete") for i in range(2, 6)})
        elements = ds.enumerate_elements(range(2, 6), 3)
        report = verify_contraction_conditions(
            ds.sum_project, elements, ds.supp_norm,
            lambda a, b: ds.distance(a, b, ds.supp_norm),
            lambda a: a.is_identity(), 1)
        assert report["all_hold"]

    def test_identity_projection_negative_control(self):
        fp = z2_z3("identity")
        report = verify_contraction_conditions(
            fp.prefix_project, fp.enumerate_words(4), fp.l1_norm, fp.distance,
            lambda w: w.is_identity(), 1)
        assert not report["all_hold"]
        assert report["norm-decrease"]["violations"] > 0
        assert report["norm-decrease"]["witness"] is not None
        assert report["non-expansive"]["violations"] == 0
        assert report["displacement"]["violations"] == 0


class TestInvariants:
    def test_inclusion_isometry(self):
        fp = FreeProduct({1: cyclic_factor(5, "word"), 2: cyclic_factor(7, "word")})
        f5 = cyclic_factor(5, "word")
        for k in range(5):
            assert fp.l1_norm(fp.include(1, k)) == f5.norm(k)

    def test_l1_supp_equivalence_constants(self):
        fp = FreeProduct({1: cyclic_factor(5, "word"), 2: cyclic_factor(7, "word")})
        sup_norm = max(f.norm(e) for f in fp.factors.values()
                       for e in f.non_identity_elements())
        inf_norm = min(f.norm(e) for f in fp.factors.values()
                       for e in f.non_identity_elements())
        for word in fp.enumerate_words(4):
            supp = fp.supp_norm(word)
            assert inf_norm * supp <= fp.l1_norm(word) <= sup_norm * supp

    @given(st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 2)), max_size=8))
    def test_reduce_is_canonical(self, letters):
        fp = z2_z3()
        word = fp.reduce(letters)
        for (i, a), (j, b) in zip(word.letters, word.letters[1:]):
            assert i != j
        for i, a in word.letters:
            assert a != 0
        assert fp.reduce(word.letters) == word

    @given(
        st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 2)), max_size=6),
        st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 2)), max_size=6),
    )
    def test_group_laws_through_reduce(self, raw_a, raw_b):
        fp = z2_z3()
        a, b = fp.reduce(raw_a), fp.reduce(raw_b)
        assert fp.multiply(a, fp.invert(a)).is_identity()
        assert fp.l1_norm(fp.multiply(a, b)) <= fp.l1_norm(a) + fp.l1_norm(b)


# --- direct sums on coordinate rows -------------------------------------------------

Z2_Z7 = DirectSum({i: cyclic_factor(i, "discrete") for i in range(2, 8)})


def collapse_and_bump(coords, indices):
    """A broken projection: the least nonzero column dies, and the column
    after it moves up by one."""
    out = collapse_least(coords)
    for row, first in enumerate(np.flatnonzero(r)[:1] for r in coords):
        if len(first) and first[0] + 1 < len(indices):
            j = first[0] + 1
            out[row, j] = (out[row, j] + 1) % indices[j]
    return out


ARRAY_PROJECTIONS = {
    "collapse": lambda coords, indices: collapse_least(coords),
    "identity": lambda coords, indices: coords.copy(),
    "collapse_and_bump": collapse_and_bump,
}


def both_audits(elements, projection):
    """The coordinate audit and the pairwise audit of one projection, given on
    coordinate rows and carried to elements through the rows."""
    indices, coords = sum_coordinates(elements)
    images = ARRAY_PROJECTIONS[projection](coords, indices)
    image_of = {g: sum_element(indices, row) for g, row in zip(elements, images)}
    pairwise = verify_contraction_conditions(
        image_of.__getitem__, elements, Z2_Z7.supp_norm,
        lambda a, b: Z2_Z7.distance(a, b, Z2_Z7.supp_norm), lambda a: a.is_identity(), 1)
    return verify_coordinate_conditions(elements, coords, images, 1), pairwise


class TestCoordinates:
    def test_round_trip(self):
        elements = Z2_Z7.enumerate_elements(range(2, 8), 2)
        indices, coords = sum_coordinates(elements)
        assert indices == (2, 3, 4, 5, 6, 7)
        assert coords.dtype == np.int16 and coords.shape == (len(elements), 6)
        assert [sum_element(indices, row) for row in coords] == elements

    def test_indices_are_the_union_of_supports(self):
        elements = [Z2_Z7.element({5: 2}), Z2_Z7.element({3: 1, 7: 6}), Z2_Z7.element({})]
        indices, coords = sum_coordinates(elements)
        assert indices == (3, 5, 7)
        assert coords.tolist() == [[0, 2, 0], [1, 0, 6], [0, 0, 0]]

    def test_no_support(self):
        indices, coords = sum_coordinates([Z2_Z7.element({})] * 3)
        assert indices == () and coords.shape == (3, 0)
        assert collapse_least(coords).shape == (3, 0)
        report = verify_coordinate_conditions([Z2_Z7.element({})] * 3, coords, coords)
        assert report["all_hold"] and report["non-expansive"]["checked"] == 3

    def test_collapse_is_sum_project(self):
        elements = Z2_Z7.enumerate_elements(range(2, 8), 3)
        indices, coords = sum_coordinates(elements)
        images = collapse_least(coords)
        assert images.dtype == np.int16
        assert [sum_element(indices, row) for row in images] == [
            Z2_Z7.sum_project(g) for g in elements]

    def test_support_distance_is_the_distance(self):
        elements = Z2_Z7.enumerate_elements(range(2, 6), 2)
        _, coords = sum_coordinates(elements)
        table = support_distance(coords[:, None], coords[None])
        assert table.tolist() == [[Z2_Z7.distance(a, b, Z2_Z7.supp_norm) for b in elements]
                                  for a in elements]

    @pytest.mark.parametrize("projection", list(ARRAY_PROJECTIONS))
    def test_dense_carrier_reports_equal(self, projection):
        elements = Z2_Z7.enumerate_elements(range(2, 7), 3)
        array, pairwise = both_audits(elements, projection)
        assert array == pairwise
        assert array["all_hold"] is (projection == "collapse")

    def test_pair_blocks_keep_the_first_witness(self, monkeypatch):
        # blocks of one row each must count and name what one block does
        elements = Z2_Z7.enumerate_elements(range(2, 6), 3)
        want, _ = both_audits(elements, "collapse_and_bump")
        monkeypatch.setattr(products, "PAIR_BLOCK_ENTRIES", 1)
        got, _ = both_audits(elements, "collapse_and_bump")
        assert got == want and want["non-expansive"]["violations"] > 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(2, 7), st.integers(0, 6), max_size=4),
                    max_size=12),
           st.sampled_from(sorted(ARRAY_PROJECTIONS)))
    def test_array_audit_equals_the_pairwise_audit(self, assignments, projection):
        elements = [Z2_Z7.element(a) for a in assignments]
        array, pairwise = both_audits(elements, projection)
        assert array == pairwise
        if projection == "collapse":
            assert array == verify_contraction_conditions(
                Z2_Z7.sum_project, elements, Z2_Z7.supp_norm,
                lambda a, b: Z2_Z7.distance(a, b, Z2_Z7.supp_norm),
                lambda a: a.is_identity(), 1)


def _direct_sum_row(cfg):
    return {r.check_id: r for r in run_products(cfg)}["products.direct_sum_conditions"]


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDirectSumCheck:
    def test_runs_the_pairwise_audit_only_on_free_products(self, monkeypatch):
        # the dense pairwise loop over direct sums must not creep back in
        audits = _count_calls(monkeypatch, products, "verify_contraction_conditions")
        distances = _count_calls(monkeypatch, DirectSum, "distance")
        rows = run_products(RunConfig.small())
        assert all(row.status == "pass" for row in rows)
        # free_product_conditions and negative_control
        assert len(audits) == 2
        # two carriers, each with ORACLE_SAMPLES pairs of elements and of images
        assert len(distances) == 2 * 2 * suites.ORACLE_SAMPLES

    def test_kernel_off_by_one_replays_the_pairwise_audit(self, monkeypatch):
        want = _direct_sum_row(RunConfig.small())
        real = products.support_distance

        # rows one column apart read as two apart
        def off_by_one(a, b):
            d = real(a, b)
            return d + (d == 1)

        monkeypatch.setattr(products, "support_distance", off_by_one)
        audits = _count_calls(monkeypatch, products, "verify_contraction_conditions")
        got = _direct_sum_row(RunConfig.small())
        # the dense carrier replays the pairwise audit, which holds, so the
        # oracle's disagreement fails the row and the sampled carrier is not
        # replayed
        assert len(audits) == 2 + 1
        assert (got.status, got.sample_size, got.witness) == \
            ("fail", want.sample_size, "DirectSum distance disagrees at 1@3 + 2@6 | 1@4")

    def test_zero_distance_fails_with_the_oracle_witness(self, monkeypatch):
        # the pairwise audit cannot see a metric that reads 0 everywhere; the
        # coordinate audit holds, and only DirectSum's oracle sample sees it
        monkeypatch.setattr(DirectSum, "distance", lambda self, a, b, norm=None: 0)
        row = _direct_sum_row(RunConfig.small())
        assert (row.status, row.sample_size, row.witness) == \
            ("fail", 72875, "DirectSum distance disagrees at 1@3 + 2@5 + 4@6 | 2@3 + 5@6")

    def test_identity_projection_fails_with_the_pairwise_witness(self, monkeypatch):
        monkeypatch.setattr(DirectSum, "sum_project", lambda self, a: a)
        row = _direct_sum_row(RunConfig.small())
        # the pairwise audit's sample size, and the dense carrier's first witness
        assert (row.status, row.sample_size, row.witness) == ("fail", 72875, "1@2")


def test_isometry_equivalence_fails_with_the_first_non_equivalent_word(monkeypatch):
    # under a doubled l1 norm the check used to fail with no witness
    true_l1 = FreeProduct.l1_norm
    monkeypatch.setattr(FreeProduct, "l1_norm", lambda self, word: 2 * true_l1(self, word))
    row = {r.check_id: r for r in run_products(RunConfig.small())}[
        "products.isometry_equivalence"]
    low, high = row.constants["inf_factor_norm"], row.constants["sup_factor_norm"]
    fp = FreeProduct({1: cyclic_factor(5, "word"), 2: cyclic_factor(7, "word")})
    first = next(word for word in fp.enumerate_words(5) if not
                 low * fp.supp_norm(word) <= 2 * true_l1(fp, word) <= high * fp.supp_norm(word))
    assert row.status == "fail"
    assert row.witness == str(first)


def test_isometry_equivalence_names_the_failed_clause(monkeypatch):
    # a factor norm off at one residue breaks only the isometric inclusion
    true_include = FreeProduct.include
    monkeypatch.setattr(FreeProduct, "include",
                        lambda self, i, k: true_include(self, i, (k + 1) % 5 if k else 0))
    row = {r.check_id: r for r in run_products(RunConfig.small())}[
        "products.isometry_equivalence"]
    assert row.status == "fail"
    assert row.witness == "factor inclusion is not an l1 isometry"
