"""Cutting maps, splitting and displacement."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conecheck import cutting, suites
from conecheck.cutting import (
    CutResult,
    IdentityInputError,
    OutOfRangeError,
    cut,
    cut_stack,
    displaced_set,
    displaced_stack,
    split,
    split_stack,
    verify_cut_lemmas,
)
from conecheck.perms import (
    IDENTITY,
    Permutation,
    _rank_images,
    _unrank_images,
    compose,
    supp_norm,
)
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
        assert result.image(3) == 3

    def test_zero_is_identity_map(self):
        sigma = Permutation.parse("(2 5)(3 7 4)")
        # nothing is erased: every support point keeps its image
        assert cut(sigma, 0).image == sigma

    def test_cut_beyond_support(self):
        # every support point is erased
        assert cut(Permutation.parse("(1 2 3)"), 5).image.is_identity()

    def test_erased_points_are_largest_support_descending(self):
        # the k largest support points are fixed by cut(sigma, k); 1 -> 9 -> 1
        # returns to itself, so only 2 and 4 stay moved
        sigma = Permutation.parse("(1 9)(4 6 2)")
        image = cut(sigma, 2).image
        assert image(9) == 9 and image(6) == 6
        assert image == Permutation.parse("(2 4)")

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
    """The cut image arrays of ``cut_stack``, column k against ``cut(., k)``."""

    @pytest.mark.parametrize("degree", [5, 6])
    def test_matches_cut_exhaustive(self, degree):
        rows = np.array(sorted(itertools.permutations(range(degree))), dtype=np.int16)
        stack = cut_stack(rows, 8)  # k past every support size included
        for k in range(9):
            assert np.array_equal(stack[:, k], reference_cuts(rows, k)), k

    def test_matches_cut_random_s30(self):
        rng = np.random.default_rng(2020)
        rows = np.array([rng.permutation(30) for _ in range(2000)])
        stack = cut_stack(rows, 8)
        for k in range(9):
            assert np.array_equal(stack[:, k], reference_cuts(rows, k)), k

    def test_identity_rows(self):
        rows = np.tile(np.arange(7), (3, 1))
        stack = cut_stack(rows, 3)
        for k in range(4):
            assert np.array_equal(stack[:, k], rows)

    def test_empty_batch(self):
        rows = np.empty((0, 6), dtype=np.int16)
        out = cut_stack(rows, 3)
        assert out.shape == (0, 4, 6)
        assert out.dtype == np.int16

    def test_zero_returns_input(self):
        rows = np.array([[1, 2, 0, 4, 3], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
        assert np.array_equal(cut_stack(rows, 0), rows[:, None])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            cut_stack(np.arange(3)[None, :], -1)

    @given(st.integers(0, 12).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=5))),
        st.integers(0, 14))
    def test_matches_cut_property(self, batch, kmax):
        degree, rows = batch
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), degree)
        stack = cut_stack(rows, kmax)
        assert stack.shape == (len(rows), kmax + 1, degree)
        for k in range(kmax + 1):
            assert np.array_equal(stack[:, k], reference_cuts(rows, k)), k


@pytest.mark.parametrize("degree, size", [(30, 512), (12, 200), (2, 3), (150, 7)])
def test_batched_draws_replay_the_permutation_loop(degree, size):
    # random_s30 draws a block in one shuffle: the same rows as one
    # rng.permutation per row, and the generator ends in the same state
    loop, batched = np.random.default_rng(11), np.random.default_rng(11)
    rows = np.array([loop.permutation(degree) for _ in range(2 * size)], dtype=np.int16)
    drawn = batched.permuted(np.tile(np.arange(degree, dtype=np.int16), (2 * size, 1)),
                             axis=1)
    assert drawn.dtype == np.int16
    assert np.array_equal(drawn, rows)
    assert loop.integers(1 << 62) == batched.integers(1 << 62)


def every_element(degree):
    """S_degree as the suite enumerates it: lexicographic ranks unranked."""
    return _unrank_images(np.arange(math.factorial(degree)), degree)


class TestBatchedSplitAndDisplacement:
    def test_enumeration_is_lexicographic(self):
        assert every_element(8).tolist() == [list(t) for t in itertools.permutations(range(8))]

    @pytest.mark.parametrize("degree", [2, 5, 6, 7])
    def test_split_stack_equals_split(self, degree):
        rows = every_element(degree)
        left, right = split_stack(rows)
        assert left.shape == right.shape == (len(rows), degree, degree)
        for i, images in enumerate(rows.tolist()):
            sigma = Permutation.from_images(images)
            for k in range(1, supp_norm(sigma) + 1):
                pair = split(sigma, k)
                assert pair.left.to_images(degree) == tuple(left[i, k - 1].tolist()), (sigma, k)
                assert pair.right.to_images(degree) == tuple(right[i, k - 1].tolist()), (sigma, k)

    @pytest.mark.parametrize("degree", [2, 5, 6, 7, 8])
    def test_displaced_stack_equals_displaced_set(self, degree):
        rows = every_element(degree)
        moved = displaced_stack(rows)
        assert not moved[0].any()  # the identity displaces nothing
        for images, mask in zip(rows[1:].tolist(), moved[1:]):
            sigma = Permutation.from_images(images)
            assert displaced_set(sigma) == frozenset((np.flatnonzero(mask) + 1).tolist()), sigma


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


class ReferenceAudit:
    """Worst observed ratio for one bound, with a witness when violated."""

    def __init__(self, lemma, bound):
        self.lemma, self.bound = lemma, bound
        self.sample_size, self.max_ratio, self.violations, self.witness = 0, 0.0, 0, None

    def record(self, observed, allowed, witness):
        self.sample_size += 1
        ratio = observed / allowed if allowed else (0.0 if observed == 0 else float("inf"))
        if ratio > self.max_ratio:
            self.max_ratio = ratio
        if observed > allowed:
            self.violations += 1
            if self.witness is None:
                self.witness = witness()

    def as_dict(self):
        return {"lemma": self.lemma, "bound": self.bound, "sample_size": self.sample_size,
                "max_ratio": self.max_ratio, "violations": self.violations,
                "witness": self.witness}


def reference_cut_lemmas(pairs, max_k):
    """verify_cut_lemmas as one Permutation loop per pair, cutting through
    whatever ``cutting.cut`` is at call time."""
    audits = {
        "step": ReferenceAudit("cut-step", "d(c_k s, c_m s) <= 2|k-m|"),
        "equal-support": ReferenceAudit("cut-equal-support", "d(c_k s, c_k t) <= d(s, t)"),
        "general": ReferenceAudit("cut-general", "d(c_k s, c_k t) <= 2 d(s, t)"),
        "norm-decrease": ReferenceAudit("cut-norm", "supp(c_k s) <= max(supp(s) - k, 0)"),
    }
    for sigma, tau in pairs:
        cs = [cutting.cut(sigma, k).image for k in range(max_k + 1)]
        ct = [cutting.cut(tau, k).image for k in range(max_k + 1)]
        for k in range(max_k + 1):
            audits["norm-decrease"].record(supp_norm(cs[k]), max(supp_norm(sigma) - k, 0),
                                           lambda: f"sigma={sigma} k={k}")
            for m in range(k + 1, max_k + 1):
                audits["step"].record(supp_norm(cs[k].then(cs[m].inverse())), 2 * (m - k),
                                      lambda: f"sigma={sigma} k={k} m={m}")
        d0 = supp_norm(sigma.then(tau.inverse()))
        for k in range(1, max_k + 1):
            dk = supp_norm(cs[k].then(ct[k].inverse()))
            audits["general"].record(dk, 2 * d0, lambda: f"sigma={sigma} tau={tau} k={k}")
            if sigma.support() == tau.support():
                audits["equal-support"].record(
                    dk, d0, lambda: f"sigma={sigma} tau={tau} k={k}")
    return {name: audit.as_dict() for name, audit in audits.items()}


def collapsing_cut(sigma, k):
    """A broken cut: everything is erased at the first cut."""
    return CutResult(sigma if k == 0 else IDENTITY)


small_perm = st.integers(0, 8).flatmap(
    lambda d: st.permutations(range(d)).map(lambda t: Permutation.from_images(tuple(t))))


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
            return CutResult(sigma if k == 0 else IDENTITY)

        monkeypatch.setattr(cutting_module, "cut", collapsing_cut)
        sigma = Permutation.parse("(1 2 3 4 5 6)")
        report = cutting_module.verify_cut_lemmas([(sigma, sigma)], max_k=3)
        monkeypatch.setattr(cutting_module, "cut", real_cut)
        assert report["step"]["violations"] > 0
        # the first violating sample, formatted exactly as the eager witness was
        assert report["step"]["witness"] == "sigma=(1 2 3 4 5 6) k=0 m=1"
        assert report["norm-decrease"]["witness"] is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(small_perm, small_perm), max_size=12).flatmap(
        lambda pairs: st.lists(st.sampled_from(pairs or [(IDENTITY, IDENTITY)]),
                               max_size=6).map(lambda repeats: pairs + repeats)),
        st.integers(0, 9), st.booleans())
    def test_matches_reference_loop(self, pairs, max_k, broken):
        # repeats of earlier pairs and identity pairs are drawn on purpose:
        # per-element bounds are evaluated once and counted per pair
        with pytest.MonkeyPatch.context() as patch:
            if broken:
                patch.setattr(cutting, "cut", collapsing_cut)
            assert verify_cut_lemmas(pairs, max_k) == reference_cut_lemmas(pairs, max_k)

    @pytest.mark.parametrize("max_k", [0, 3])
    def test_empty_pair_list_matches_reference(self, max_k):
        assert verify_cut_lemmas([], max_k) == reference_cut_lemmas([], max_k)

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
    def collapsing_kernel(images, kmax):
        images = np.asarray(images)
        out = np.broadcast_to(np.arange(images.shape[1], dtype=images.dtype),
                              (images.shape[0], kmax + 1, images.shape[1])).copy()
        out[:, 0] = images
        return out

    monkeypatch.setattr(cutting, "cut_stack", collapsing_kernel)
    rows = {c.check_id: c for c in run_cutting(RunConfig.small())}
    for check_id in ("cutting.random_s30", "cutting.exhaustive_s6"):
        assert rows[check_id].status == "fail", check_id
        assert rows[check_id].witness is not None, check_id


def swapped_split(sigma, k):
    pair = split(sigma, k)
    return cutting.SplitPair(pair.right, pair.left)


def whole_support(sigma):
    displaced_set(sigma)  # the identity is still refused
    return frozenset(sigma.support())


@pytest.mark.parametrize("check_id, name, broken, witness", [
    ("cutting.splitting_s7", "split", swapped_split, "(4 5) at k=1"),
    ("cutting.displacement_s8", "displaced_set", whole_support, "(5 6)"),
])
def test_broken_reference_fails_through_the_oracle(monkeypatch, check_id, name, broken,
                                                   witness):
    # the batched check agrees with the true split and displaced set, so only
    # the oracle sample can see the patch; the replayed loop then reports the
    # witness and sample size read at the per-permutation loop under this patch
    monkeypatch.setattr(cutting, name, broken)
    row = {c.check_id: c for c in run_cutting(RunConfig.small())}[check_id]
    assert (row.status, row.witness, row.sample_size) == ("fail", witness, 1)


def displaced_image(sigma):
    return frozenset(map(sigma, displaced_set(sigma)))


def swapped_split_stack(images):
    left, right = split_stack(images)
    return right, left


@pytest.mark.parametrize("check_id, name, broken, witness, sample_size", [
    # sigma(D) is as disjoint from its image as D, so the reference loop passes
    ("cutting.displacement_s8", "displaced_set", displaced_image,
     "displaced set disagrees at (1 4 5)(2 6)", 720),
    # the kernel's swapped factors fail, the reference loop passes
    ("cutting.splitting_s7", "split_stack", swapped_split_stack,
     "split disagrees at (1 5 3 2 4) k=2", 481),
], ids=["displaced_set", "split_stack"])
def test_disagreement_the_reference_misses_fails(monkeypatch, check_id, name, broken,
                                                  witness, sample_size):
    # the whole reference loop, then the oracle's disagreement as one more case
    monkeypatch.setattr(cutting, name, broken)
    row = {c.check_id: c for c in run_cutting(RunConfig.small())}[check_id]
    assert (row.status, row.witness, row.sample_size) == ("fail", witness, sample_size)


def test_cutting_runs_each_kernel_once_and_each_reference_on_its_sample(monkeypatch):
    # a per-element or per-k loop must not creep back into the cutting suite
    calls = dict.fromkeys(("cut_stack", "split", "displaced_set"), 0)
    for name in calls:
        real = getattr(cutting, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cutting, name, counted)
    cfg = RunConfig.small()
    rows = run_cutting(cfg)
    assert all(row.status == "pass" for row in rows)
    # one exhaustive image array, and one random block per CUT_BLOCK pairs
    assert calls == {"cut_stack": 1 + -(-cfg.random_pairs // suites.CUT_BLOCK),
                     "split": suites.ORACLE_SAMPLES, "displaced_set": suites.ORACLE_SAMPLES}
    assert not hasattr(cutting, "cut_images")


def test_small_config_cut_checks_pinned():
    # read from the per-check implementations this audit replaced
    rows = {c.check_id: c for c in run_cutting(RunConfig.small())}
    no_violations = {"norm_violations": 0, "step_violations": 0, "general_violations": 0,
                     "equal_support_violations": 0, "vectorization_crosschecked": True}
    assert (rows["cutting.exhaustive_s6"].sample_size,
            rows["cutting.exhaustive_s6"].observed) == (86400, no_violations)
    assert (rows["cutting.random_s30"].sample_size,
            rows["cutting.random_s30"].observed) == (200, {"violations": 0})
    assert (rows["cutting.audit_report"].sample_size,
            rows["cutting.audit_report"].observed) == (503992, {
                "step": 1.0, "equal-support": 1.0, "general": 0.75, "norm-decrease": 1.0})


def test_every_cut_check_goes_through_cut_bounds(monkeypatch):
    # cut_bounds is the only place the four bounds are evaluated: a violation
    # it reports must fail each check that audits them, with a witness
    real_cut_bounds = cutting.cut_bounds

    def one_violation(*args, **kwargs):
        bounds = real_cut_bounds(*args, **kwargs)
        bounds["general"] = dataclasses.replace(bounds["general"], violations=1, first=(0, 1))
        return bounds

    monkeypatch.setattr(cutting, "cut_bounds", one_violation)
    rows = {c.check_id: c for c in run_cutting(RunConfig.small())}
    for check_id in ("cutting.exhaustive_s6", "cutting.random_s30", "cutting.audit_report"):
        assert rows[check_id].status == "fail", check_id
        assert rows[check_id].witness.startswith("general: sigma="), check_id


def _three_entries_changed(cuts, rows, k):
    """cuts with entries 0, 1 and 2 of c_k rotated in the given rows: each
    such c_k is a 3-cycle away from the true one."""
    out = cuts.copy()
    out[rows, k, :3] = out[rows, k][..., [1, 2, 0]]
    return out


def _pairwise_step(cuts, left, right):
    """The step bound audited over every pair k < m, as cut_bounds does when a
    step breaks the adjacent-step certificate."""
    elements, first_seen, counts = np.unique(np.broadcast_arrays(left, right)[0],
                                             return_index=True, return_counts=True)
    return cutting._pairwise_step_audit(cuts[elements], lambda a, b: (a != b).sum(axis=-1),
                                        first_seen, counts)


class TestStepCertificateAndTable:
    """cut_bounds certifies the step bound from adjacent steps and audits every
    pair k < m only when a step exceeds 2; exhaustive_s6 reads its distances
    off hamming_table."""

    images = _unrank_images(np.arange(120), 5)
    everyone = np.arange(120)

    def _stacks(self):
        cuts = cut_stack(self.images, 6)
        return {"true": cuts, "mutant": _three_entries_changed(cuts, [7, 77, 119], 2)}

    def test_certificate_equals_the_pairwise_audit(self):
        rng = np.random.default_rng(22)
        drawn = rng.permuted(np.tile(np.arange(30, dtype=np.int16), (400, 1)), axis=1)
        random_cuts = cut_stack(drawn, 8)
        cases = [(stack, self.everyone[:, None], self.everyone)
                 for stack in self._stacks().values()]
        cases += [(stack, np.arange(0, 400, 2), np.arange(1, 400, 2))
                  for stack in (random_cuts, _three_entries_changed(random_cuts, [5, 6], 4))]
        for stack, left, right in cases:
            certified = cutting.cut_bounds(stack, left, right)["step"]
            assert certified == _pairwise_step(stack, left, right)
        # the mutants break the certificate, so their step audits were replayed
        assert certified.violations > 0

    def test_table_distances_equal_image_distances(self):
        table = cutting.hamming_table(self.images)
        for stack in self._stacks().values():
            ranks = _rank_images(stack.reshape(-1, 5)).reshape(stack.shape[:2])
            for left, right in ((self.everyone[:, None], self.everyone),
                                (self.everyone[::-1], self.everyone),
                                (self.everyone[3:40, None], self.everyone[::7])):
                assert cutting.cut_bounds(stack, left, right, (ranks, table)) == \
                    cutting.cut_bounds(stack, left, right)

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 16])
    def test_hamming_table_in_blocks(self, monkeypatch, block_entries):
        monkeypatch.setattr(cutting, "HAMMING_BLOCK_ENTRIES", block_entries)
        table = cutting.hamming_table(self.images)
        assert table.dtype == np.uint8
        perms = all_perms(5)
        assert table.tolist() == [[supp_norm(p.then(q.inverse())) for q in perms] for p in perms]

    def test_a_passing_run_audits_no_step_pair(self, monkeypatch):
        calls = []
        pairwise = cutting._pairwise_step_audit
        monkeypatch.setattr(cutting, "_pairwise_step_audit",
                            lambda own, *args: calls.append(own.shape) or pairwise(own, *args))
        rows = run_cutting(RunConfig(random_pairs=2000))
        assert all(row.status == "pass" for row in rows)
        assert calls == []


def test_three_changed_entries_fail_exhaustive_with_the_pairwise_witness(monkeypatch):
    # c_1 of the identity, rank 0 of S_5, rotated at three entries: a 3-cycle,
    # whose step from c_0 is 3, so the certificate fails and the pairwise
    # audit names the first violation.  No sampled reference cut is at rank
    # 0, k = 1.
    real = cutting.cut_stack

    def mutant(images, kmax):
        out = real(images, kmax)
        return _three_entries_changed(out, [0], 1) if images.shape[1] == 5 else out

    monkeypatch.setattr(cutting, "cut_stack", mutant)
    row = {c.check_id: c for c in run_cutting(RunConfig.small())}["cutting.exhaustive_s6"]
    images = _unrank_images(np.arange(120), 5)
    everyone = np.arange(120)
    step = _pairwise_step(mutant(images, 6), everyone[:, None], everyone)
    assert step.first == (0, 0, 1)
    assert (row.status, row.witness) == \
        ("fail", f"step: {cutting.witness_text('step', step.first, IDENTITY, IDENTITY)}")
    assert row.witness == "step: sigma=() k=0 m=1"
    assert row.observed["step_violations"] == step.violations
    assert row.observed["vectorization_crosschecked"] is True


def test_a_cut_that_is_no_permutation_is_audited_on_its_images(monkeypatch):
    # c_1 of the identity with its first entry repeated, (1, 1, 2, 3, 4): its
    # rank names some other permutation, so the table would read the wrong
    # distances.  exhaustive_s6 must see that and audit the images instead.
    real = cutting.cut_stack

    def mutant(images, kmax):
        out = real(images, kmax)
        if images.shape[1] == 5:
            out[0, 1, 0] = out[0, 1, 1]
        return out

    monkeypatch.setattr(cutting, "cut_stack", mutant)
    row = {c.check_id: c for c in run_cutting(RunConfig.small())}["cutting.exhaustive_s6"]
    images = _unrank_images(np.arange(120), 5)
    everyone = np.arange(120)
    cuts = mutant(images, 6)
    on_images = cutting.cut_bounds(cuts, everyone[:, None], everyone)
    ranks = _rank_images(cuts.reshape(-1, 5)).reshape(120, 7)
    on_table = cutting.cut_bounds(cuts, everyone[:, None], everyone,
                                  (ranks, cutting.hamming_table(images)))
    assert on_table != on_images
    name = next(name for name, audit in on_images.items() if audit.first is not None)
    sigma, tau = (Permutation.from_images(tuple(int(x) for x in images[i]))
                  for i in divmod(on_images[name].first[0], 120))
    assert (row.status, row.witness) == \
        ("fail", f"{name}: {cutting.witness_text(name, on_images[name].first, sigma, tau)}")
    assert row.witness == "norm-decrease: sigma=() k=1"
    observed = {"norm-decrease": "norm_violations", "step": "step_violations",
                "general": "general_violations", "equal-support": "equal_support_violations"}
    assert {name: row.observed[key] for name, key in observed.items()} == \
        {name: audit.violations for name, audit in on_images.items()}
