"""Brenner covering, Ore commutator witnesses and conjugate-product
certificates."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from conecheck import covering, suites
from conecheck.covering import (
    ConjugateProductCertificate,
    HypothesisUnmetError,
    IdentityBaseError,
    SupportExceedsDegreeError,
    _tuple_brenner_check,
    brenner_check,
    brenner_hypotheses,
    canonical_of_type,
    commutator_witness,
    conjugacy_class,
    conjugator_to,
    even_conjugator_to,
    express_as_conjugates,
    orbit_count,
)
from conecheck.perms import (
    IDENTITY,
    OddPermutationError,
    Permutation,
    _compose_images,
    _even_tuples,
    _invert_images,
    _layouts,
    _tuple_even,
    _unrank_images,
    commutator,
    supp_norm,
)
from conecheck.report import RunConfig
from conecheck.suites import run_covering


class TestOrbitCount:
    def test_examples(self):
        assert orbit_count(Permutation.parse("(1 2)(3 4)"), 5) == 3
        assert orbit_count(IDENTITY, 7) == 7
        assert orbit_count(Permutation.parse("(1 2 3 4 5)"), 5) == 1

    def test_support_gate(self):
        with pytest.raises(SupportExceedsDegreeError):
            orbit_count(Permutation.parse("(1 9)"), 5)


class TestBrenner:
    def test_double_transposition_covers_a5(self):
        report = brenner_check(Permutation.parse("(1 2)(3 4)"), 5)
        assert report.covered
        assert report.exponent <= 4
        assert report.exponent == 2  # frozen from the exhaustive BFS
        assert report.class_size == 15

    def test_no_two_orbit(self):
        with pytest.raises(HypothesisUnmetError):
            brenner_check(Permutation.parse("(1 2 3)"), 5)

    def test_orbit_arithmetic_gate(self):
        # degree 6 gives r = 4 and n - 2r = -2 < -1
        assert brenner_hypotheses(Permutation.parse("(1 2)(3 4)"), 6) is not None
        with pytest.raises(HypothesisUnmetError):
            brenner_check(Permutation.parse("(1 2)(3 4)"), 6)

    def test_degree_cap(self):
        sigma = Permutation.parse("(1 2)(3 4 5 6 7 8 9)")
        with pytest.raises(HypothesisUnmetError):
            brenner_check(sigma, 9)

    def test_odd_rejected(self):
        with pytest.raises(HypothesisUnmetError):
            brenner_check(Permutation.parse("(1 2)"), 5)

    def test_a4_refused(self):
        # the (2, 2) class of A_4 only ever generates V_4
        sigma = Permutation.parse("(1 2)(3 4)")
        assert brenner_hypotheses(sigma, 4) == "degree 4 below 5"
        with pytest.raises(HypothesisUnmetError, match="below 5"):
            brenner_check(sigma, 4)

    def test_class_materialization(self):
        cls = conjugacy_class(Permutation.parse("(1 2 3)"), 5)
        assert cls.size() == 20
        assert all(Permutation.from_images(m).cycle_type() == (3,) for m in cls.members)


def _cycle_types(n: int, smallest: int = 2):
    """Every multiset of cycle lengths >= smallest with sum at most n, descending."""
    yield ()
    for first in range(smallest, n + 1):
        for rest in _cycle_types(n - first, first):
            yield (*rest, first)


def _centraliser_order(cycle_type: tuple[int, ...], n: int) -> int:
    counts = Counter(cycle_type)
    counts[1] = n - sum(cycle_type)
    return math.prod(k ** m * math.factorial(m) for k, m in counts.items())


@pytest.mark.parametrize("n, cycle_type",
                         [(n, t) for n in range(1, 8) for t in _cycle_types(n)])
def test_class_size_is_orbit_stabiliser(n, cycle_type):
    cls = conjugacy_class(canonical_of_type(cycle_type), n)
    assert cls.size() == math.factorial(n) // _centraliser_order(cycle_type, n)


def _hypothesis_classes(degrees):
    return [(n, t) for n in degrees for t in _cycle_types(n)
            if brenner_hypotheses(canonical_of_type(t), n) is None]


@pytest.mark.parametrize("n, cycle_type", _hypothesis_classes(range(5, 8)))
def test_rank_mask_kernel_matches_tuple_reference(n, cycle_type):
    # brenner_check decides on cycle types; the rank masks and the sets of
    # image tuples are its oracle and its reference
    sigma = canonical_of_type(cycle_type)
    assert brenner_check(sigma, n) == _tuple_brenner_check(sigma, n) \
        == covering._rank_mask_brenner_check(sigma, n)


@pytest.mark.parametrize("n, cycle_type", _hypothesis_classes(range(5, 9)))
def test_type_kernel_matches_rank_masks(n, cycle_type):
    members = sorted(conjugacy_class(canonical_of_type(cycle_type), n).members)
    assert covering._type_covering_exponent(members, n) == covering._covering_exponent(members, n)


def test_type_kernel_reports_the_least_exponent():
    # (2, 2, 2, 2) needs four factors in A_8: its C^3 misses a type
    sigma = canonical_of_type((2, 2, 2, 2))
    assert brenner_check(sigma, 8) == covering.CoveringReport(105, True, 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_alternating_mask_is_the_tuple_parity(n):
    mask = covering._alternating_mask(n)
    assert mask.tolist() == [_tuple_even(t) for t in itertools.permutations(range(n))]
    assert not mask.flags.writeable


def _brenner_row(degrees):
    cfg = RunConfig.small()
    cfg.brenner_degrees = degrees
    return next(c for c in run_covering(cfg) if c.check_id == "covering.brenner")


def test_wrong_kernel_exponent_fails_against_reference(monkeypatch):
    # the kernel's exponent 3 still claims covering; only the reference sees it is wrong
    monkeypatch.setattr(covering, "_type_covering_exponent", lambda members, n: 3)
    row = _brenner_row((5,))
    assert row.status == "fail"
    assert row.witness == ("A_5 type (2, 2): exponent 3 from the type kernel, "
                           "2 from the tuple reference")


def test_wrong_kernel_exponent_fails_against_the_rank_mask_oracle(monkeypatch):
    # A_8 has no tuple reference; the seeded class at seed 2020 is its first
    monkeypatch.setattr(covering, "_type_covering_exponent", lambda members, n: 3)
    row = _brenner_row((8,))
    assert (row.status, row.sample_size, row.witness) == (
        "fail", 105, "A_8 type (2, 2, 2, 2): exponent 3 from the type kernel, "
        "4 from the rank-mask oracle")


def test_failing_first_class_keeps_its_witness(monkeypatch):
    # A_7 has no tuple reference, and its first class is the seeded oracle's;
    # the failing class still counts as examined
    monkeypatch.setattr(covering, "_type_covering_exponent", lambda members, n: None)
    row = _brenner_row((7,))
    assert row.status == "fail"
    assert row.witness == ("A_7 type (3, 2, 2): exponent None from the type kernel, "
                           "2 from the rank-mask oracle")
    assert row.sample_size == conjugacy_class(canonical_of_type((3, 2, 2)), 7).size()


def test_uncovered_class_off_the_oracle_fails_on_the_verdict(monkeypatch):
    # A_7's second class has no reference run, so the kernel's verdict alone
    # fails the check
    kernel = covering._type_covering_exponent
    monkeypatch.setattr(covering, "_type_covering_exponent",
                        lambda members, n: None if len(members) == 630 else kernel(members, n))
    row = _brenner_row((7,))
    assert (row.status, row.sample_size, row.witness) == ("fail", 210 + 630, "A_7 type (4, 2)")


def test_exhaustive_run_reruns_only_the_oracle_samples(monkeypatch):
    # the rank masks re-run one class per degree, and commutator_witness at
    # most ORACLE_SAMPLES elements per degree; the replays never run.  Every
    # kernel of a class shares one conjugacy_class build per (cycle type,
    # degree): 8 for brenner and 2 for class_closure, where each check of a
    # class once built its own (19 calls)
    calls = {"_covering_exponent": 0, "commutator_witness": 0, "conjugacy_class": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(covering, "_covering_exponent")
    counted(suites, "commutator_witness")
    counted(covering, "conjugacy_class")
    counted(suites, "conjugacy_class")
    covering._window_class.cache_clear()
    rows = run_covering(RunConfig(brenner_degrees=(5, 6, 7, 8), ore_degrees=(5, 6, 7)))
    assert all(row.status == "pass" for row in rows)
    assert calls["_covering_exponent"] == 4
    assert calls["conjugacy_class"] == 10
    assert calls["commutator_witness"] <= 3 * suites.ORACLE_SAMPLES


def _conjugated(t, tau):
    """tau t tau^{-1} on image tuples, left to right."""
    return _compose_images(_compose_images(tau, t), _invert_images(tau))


class TestConjugators:
    def test_conjugator_matches_types(self):
        a = Permutation.parse("(1 2 3)(4 5)").to_images(6)
        b = Permutation.parse("(2 6 4)(1 3)").to_images(6)
        tau = conjugator_to(a, b)
        assert _conjugated(a, tau) == b

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            conjugator_to(Permutation.parse("(1 2)").to_images(3),
                          Permutation.parse("(1 2 3)").to_images(3))

    def test_even_conjugator_exists(self):
        a = Permutation.parse("(1 2 3)").to_images(5)
        b = Permutation.parse("(3 4 5)").to_images(5)
        tau = even_conjugator_to(a, b)
        assert tau is not None and _tuple_even(tau)
        assert _conjugated(a, tau) == b

    def test_even_conjugator_none_when_centralizer_is_even(self):
        # a 3-cycle in ambient 4 leaves one free point: the centralizer has
        # no odd element, so one of the two conjugators may be unreachable
        a = Permutation.parse("(1 2 3)").to_images(4)
        results = []
        for images in itertools.permutations(range(4)):
            b = Permutation.from_images(images)
            if b.cycle_type() == (3,):
                results.append(even_conjugator_to(a, images))
        assert any(r is None for r in results)
        assert any(r is not None for r in results)


def test_witness_search_builds_no_permutation(monkeypatch):
    # the Ore search scans A_m as image tuples; only the caller's relabelled
    # pair becomes Permutations
    built = []
    init = Permutation.__init__

    def counted(self, mapping=None):
        built.append(mapping)
        init(self, mapping)

    monkeypatch.setattr(Permutation, "__init__", counted)
    b, c = covering._search_witness.__wrapped__((3, 2, 2), 7)
    assert not built
    # [b, c] = b c b^{-1} c^{-1}
    assert _compose_images(_conjugated(c, b), _invert_images(c)) \
        == Permutation.parse("(1 2 3)(4 5)(6 7)").to_images(7)


class TestCommutatorWitness:
    def test_identity(self):
        assert commutator_witness(IDENTITY, 5) == (IDENTITY, IDENTITY)

    def test_five_cycle(self):
        g = Permutation.parse("(1 2 3 4 5)")
        b, c = commutator_witness(g, 5)
        assert commutator(b, c) == g
        assert b.is_even() and c.is_even()

    def test_three_cycle_lands_in_a5(self):
        g = Permutation.parse("(1 2 3)")
        b, c = commutator_witness(g, 3)
        assert commutator(b, c) == g
        for witness in (b, c):
            assert not witness.support() or witness.support()[-1] <= 5

    def test_all_of_a5(self):
        for images in itertools.permutations(range(5)):
            g = Permutation.from_images(images)
            if not g.is_even():
                continue
            b, c = commutator_witness(g, 5)
            assert commutator(b, c) == g

    def test_odd_rejected(self):
        with pytest.raises(OddPermutationError):
            commutator_witness(Permutation.parse("(1 2)"), 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_layouts_are_the_tuple_layouts(n):
    images = _unrank_images(np.arange(math.factorial(n)), n)
    assert [tuple(row) for row in _layouts(images).tolist()] \
        == [covering._layout(tuple(row)) for row in images.tolist()]


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_witnesses_are_commutator_witness(n):
    g, b, c = covering._stacked_commutator_witnesses(n)
    m = max(n, 5)
    assert g.shape == b.shape == c.shape == (math.factorial(n) // 2 if n > 1 else 1, m)
    elements = [t + tuple(range(n, m)) for t in _even_tuples(n)]
    assert [tuple(row) for row in g.tolist()] == elements
    for t, row_b, row_c in zip(elements, b.tolist(), c.tolist()):
        assert commutator_witness(Permutation.from_images(t), n) \
            == (Permutation.from_images(row_b), Permutation.from_images(row_c))


def _ore_row(monkeypatch, stack):
    """The ore_witnesses row of RunConfig.small() (A_5, seed 2020) with the
    stacked kernel replaced, and the number of commutator_witness calls."""
    calls = []
    witness = suites.commutator_witness
    monkeypatch.setattr(suites, "commutator_witness",
                        lambda g, n: calls.append(g) or witness(g, n))
    monkeypatch.setattr(suites, "_stacked_commutator_witnesses", stack)
    row = next(r for r in run_covering(RunConfig.small())
               if r.check_id == "covering.ore_witnesses")
    return (row.status, row.sample_size, row.witness), len(calls)


def _oracle_rows():
    """The rows of A_5 the Ore oracle re-runs under RunConfig.small()."""
    seed = RunConfig.small().seed
    return np.random.default_rng((seed, 12)).integers(60, size=suites.ORACLE_SAMPLES)


def _identity_b(g, b, c, row):
    b[row] = np.arange(b.shape[1])


def _odd_b(g, b, c, row):
    # b then a transposition z of two fixed points of c: z commutes with c, so
    # [b z, c] = [b, c] still holds and only the parity check fails
    p, q = np.flatnonzero(c[row] == np.arange(c.shape[1]))[:2]
    z = np.arange(c.shape[1])
    z[[p, q]] = q, p
    b[row] = z[b[row]]
    assert (c[row][b[row]] == b[row][c[row][g[row]]]).all()


@pytest.mark.parametrize("corrupt", [_identity_b, _odd_b])
def test_corrupted_stacked_witness_replays_as_the_loop(monkeypatch, corrupt):
    # one unsampled element's b corrupted: the array check fails, the loop over
    # Permutations replays and passes, and the oracle agrees
    sampled = set(_oracle_rows().tolist())

    def corrupted(n):
        g, b, c = covering._stacked_commutator_witnesses(n)
        row = next(i for i in range(1, len(g)) if i not in sampled
                   and (c[i] == np.arange(c.shape[1])).sum() >= 2)
        corrupt(g, b, c, row)
        return g, b, c

    assert _ore_row(monkeypatch, corrupted) == (("pass", 60, None), 60 + suites.ORACLE_SAMPLES)


def test_stack_that_always_holds_fails_on_the_oracle(monkeypatch):
    # [b c, c] = [b, c], so every row of (b c, c) passes the array check; the
    # seeded commutator_witness disagrees at its first non-identity element,
    # after the replayed loop passes, as one more case
    def shifted(n):
        g, b, c = covering._stacked_commutator_witnesses(n)
        return g, np.take_along_axis(c, b, axis=1), c

    first = next(i for i in _oracle_rows() if i > 0)
    g = Permutation.from_images(_even_tuples(5)[first])
    assert _ore_row(monkeypatch, shifted)[0] == ("fail", 61, f"stacked witness disagrees at {g}")


class TestCertificates:
    def test_identity_target(self):
        cert = express_as_conjugates(IDENTITY, Permutation.parse("(1 2)(3 4)"))
        assert cert.factors == []
        assert cert.verify()

    def test_target_equals_base(self):
        g = Permutation.parse("(1 2)(3 4)")
        cert = express_as_conjugates(g, g)
        assert cert.factor_count() == 1
        assert cert.factors[0].conjugator.is_identity()
        assert cert.verify()

    def test_seven_cycle(self):
        h = Permutation.parse("(1 2 3 4 5 6 7)")
        g = Permutation.parse("(1 2)(3 4)")
        cert = express_as_conjugates(h, g)
        assert cert.verify()
        assert cert.factor_count() <= 8 * supp_norm(h) / supp_norm(g) + 4

    def test_odd_target_is_impossible(self):
        # a product of conjugates of an even base is even; the 6-cycle is odd
        with pytest.raises(OddPermutationError):
            express_as_conjugates(Permutation.parse("(1 2 3 4 5 6)"),
                                  Permutation.parse("(1 2)(3 4)"))

    def test_identity_base_rejected(self):
        with pytest.raises(IdentityBaseError):
            express_as_conjugates(Permutation.parse("(1 2 3)"), IDENTITY)

    def test_modification_of_odd_base(self):
        h = Permutation.parse("(1 2 3)(4 5 6)")
        cert = express_as_conjugates(h, Permutation.parse("(1 2 3 4)"))
        assert len(cert.modifications) == 1
        assert cert.base.is_even() and 2 in cert.base.cycle_type()
        assert cert.verify()

    def test_modification_without_two_orbit(self):
        h = Permutation.parse("(1 2 3)(4 5 6)")
        cert = express_as_conjugates(h, Permutation.parse("(1 2 3 4 5)"))
        assert len(cert.modifications) == 2
        assert cert.base.is_even() and 2 in cert.base.cycle_type()
        assert cert.verify()
        assert cert.diagnostics["modified"]

    def test_json_roundtrip(self, tmp_path):
        h = Permutation.parse("(1 2 3)(4 5 6)")
        cert = express_as_conjugates(h, Permutation.parse("(1 2)(3 4)"))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_json_dict()))
        loaded = ConjugateProductCertificate.from_json_dict(json.loads(path.read_text()))
        assert loaded.verify()
        assert loaded.target == cert.target
        assert loaded.factor_count() == cert.factor_count()

    def test_perturbed_certificate_fails(self):
        h = Permutation.parse("(1 2 3)(4 5 6)")
        cert = express_as_conjugates(h, Permutation.parse("(1 2)(3 4)"))
        data = cert.to_json_dict()
        assert data["factors"]
        data["factors"][0]["conjugator"] = "(1 6 2)"
        tampered = ConjugateProductCertificate.from_json_dict(data)
        assert not tampered.verify()

    def test_canonical_of_type(self):
        assert canonical_of_type((3, 2)) == Permutation.parse("(1 2 3)(4 5)")
