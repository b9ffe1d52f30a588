"""Finite-stage probes: admissibility, tail estimates, circle maps."""

import math

import numpy as np
import pytest

from conecheck import coneprobe, matnorm
from conecheck.report import RunConfig
from conecheck.suites import run_coneprobe
from conecheck.coneprobe import (
    ScaledSequence,
    StageFamily,
    admissibility,
    arc_identity_array,
    arc_identity_exact,
    check_sequence_contraction,
    circle_to_zmod,
    circle_to_zmod_array,
    cyclic_norm,
    estimate_limit,
    load_sequence,
    scaling_by_name,
    zmod_to_circle,
    zmod_to_circle_array,
)


def theta_lipschitz_bound(angle_x, angle_y, n):
    """Cyclic distance of the projected residues, and its +2 allowance."""
    kx, ky = circle_to_zmod(angle_x, n), circle_to_zmod(angle_y, n)
    arc = abs((angle_x - angle_y + math.pi) % (2 * math.pi) - math.pi)
    return cyclic_norm(kx - ky, n), arc * n / (2 * math.pi) + 2.0


class TestAdmissibility:
    def test_constant_identity(self):
        seq = load_sequence({"family": "constant-identity", "stages": list(range(1, 30))})
        ok, witness = admissibility(seq, 0.0)
        assert ok and witness["ratio"] == 0.0

    def test_cycle_family_ratio_one(self):
        seq = load_sequence({"family": "cycle", "stages": list(range(1, 30))})
        ok, witness = admissibility(seq, 1.0)
        assert ok and witness["ratio"] == 1.0

    def test_square_family_inadmissible(self):
        seq = load_sequence({"family": "square-cycle", "stages": list(range(1, 30))})
        ok, witness = admissibility(seq, 5.0)
        assert not ok
        assert witness["stage"] == 29 and witness["ratio"] == 29.0

    def test_table_and_alpha_scaling(self):
        seq = load_sequence({
            "family": "table", "values": [[4, 2.0], [9, 3.0]],
            "scaling": "n^alpha", "alpha": 0.5,
        })
        assert seq.normalized() == (1.0, 1.0)

    def test_invalid_scaling(self):
        with pytest.raises(ValueError):
            scaling_by_name("nonsense")


class TestEstimateLimit:
    def test_constant(self):
        estimate = estimate_limit([2.5] * 40)
        assert estimate.converged and estimate.tail_mean == 2.5

    def test_vanishing(self):
        estimate = estimate_limit([1.0 / n for n in range(1, 500)], tolerance=1e-2)
        assert estimate.converged and estimate.tail_mean < 0.01

    def test_alternating_is_honestly_unresolved(self):
        estimate = estimate_limit([0.0, 1.0] * 25)
        assert not estimate.converged
        assert estimate.tail_min == 0.0 and estimate.tail_max == 1.0

    def test_tail_ordering_invariant(self):
        estimate = estimate_limit([3.0, 1.0, 2.0, 5.0], tail_fraction=1.0)
        assert estimate.tail_min <= estimate.tail_mean <= estimate.tail_max

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_limit([])


class TestCircleMaps:
    def test_zero(self):
        assert zmod_to_circle(0, 7) == 0.0
        assert circle_to_zmod(0.0, 7) == 0

    def test_half_turn(self):
        assert zmod_to_circle(4, 8) == math.pi

    def test_eighth(self):
        assert zmod_to_circle(1, 8) == pytest.approx(math.pi / 4)

    def test_tie_break_to_smaller(self):
        # exactly between roots 0 and 1
        assert circle_to_zmod(math.pi / 8, 8) in (0, 1)
        n = 4
        midpoint = 2.0 * math.pi / (2 * n)
        assert circle_to_zmod(midpoint, n) == 0

    def test_roundtrip(self):
        for n in (1, 2, 7, 64, 128, 1000):
            for k in range(0, n, max(1, n // 37)):
                assert circle_to_zmod(zmod_to_circle(k, n), n) == k

    def test_arc_identity(self):
        for n in (1, 2, 3, 8, 31):
            for a in range(n):
                for b in range(n):
                    assert arc_identity_exact(a, b, n)

    def test_lipschitz_bound_shape(self):
        observed, allowed = theta_lipschitz_bound(0.3, 1.2, 16)
        assert observed <= allowed
        assert cyclic_norm(5, 16) == 5 and cyclic_norm(13, 16) == 3

    def test_lipschitz_bound_random(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            n = int(rng.integers(1, 200))
            x, y = rng.uniform(0, 2 * math.pi, 2)
            observed, allowed = theta_lipschitz_bound(float(x), float(y), n)
            assert observed <= allowed + 1e-9


class TestCircleToZmodArray:
    # the default grid's exact ties between roots n - 1 and 0, where rounding
    # ties up used to give n - 1 and theta gives 0
    TIES = {2: 7500, 4: 8750, 5: 9000, 10: 9500, 20: 9750, 25: 9800, 40: 9875,
            100: 9950, 125: 9960, 200: 9975, 250: 9980}
    GRID = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)

    def test_ties_go_to_the_smaller_residue(self):
        for n, index in self.TIES.items():
            assert circle_to_zmod(float(self.GRID[index]), n) == 0
            assert circle_to_zmod_array(self.GRID, n)[index] == 0
            assert circle_to_zmod_array(self.GRID[index], n) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25, 256])
    def test_matches_circle_to_zmod_on_the_grid(self, n):
        expected = [circle_to_zmod(float(angle), n) for angle in self.GRID]
        assert circle_to_zmod_array(self.GRID, n).tolist() == expected


class TestExactArrays:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024])
    def test_zmod_to_circle_array_is_bit_equal(self, n):
        assert zmod_to_circle_array(n).tolist() == [zmod_to_circle(k, n) for k in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_arc_identity_array_matches_the_exact_rationals(self, n):
        expected = [arc_identity_exact(a, b, n) for a in range(n) for b in range(n)]
        assert arc_identity_array(n).tolist() == expected


def _lipschitz_row():
    return next(c for c in run_coneprobe(RunConfig.small())
                if c.check_id == "coneprobe.lipschitz_grid")


class TestLipschitzGrid:
    def test_shifted_array_theta_fails_with_the_grid_witness(self, monkeypatch):
        true_theta = coneprobe.circle_to_zmod_array
        monkeypatch.setattr(coneprobe, "circle_to_zmod_array",
                            lambda angles, n: (true_theta(angles, n) + 1) % n)
        row = _lipschitz_row()
        assert row.status == "fail"
        assert row.witness == "nearest-root property at n=2"
        assert row.observed["vectorization_crosschecked"] is False

    def test_reference_off_by_one_fails_with_the_cross_check_witness(self, monkeypatch):
        # the grid's own bounds hold; only the cross-check sees the disagreement
        true_theta = coneprobe.circle_to_zmod
        monkeypatch.setattr(coneprobe, "circle_to_zmod",
                            lambda angle, n: (true_theta(angle, n) + 1) % n)
        row = _lipschitz_row()
        assert row.status == "fail"
        assert row.witness.startswith("angle=") and " n=" in row.witness


def _coneprobe_row(check_id):
    return next(c for c in run_coneprobe(RunConfig.small()) if c.check_id == check_id)


class TestExactChecksOnArrays:
    """coneprobe.roundtrip and coneprobe.arc_identity run one array per n; a
    failure or an oracle disagreement replays the scalar loop, so the rows read
    as the scalar loops alone gave them."""

    def test_sample_sizes(self):
        rows = {c.check_id: c for c in run_coneprobe(RunConfig.small())}
        assert rows["coneprobe.roundtrip"].sample_size == 64 * 65 // 2
        assert rows["coneprobe.arc_identity"].sample_size == 89_440

    def test_circle_to_zmod_off_by_one_fails_the_roundtrip(self, monkeypatch):
        # the arrays hold; the oracle's circle_to_zmod disagrees
        true_theta = coneprobe.circle_to_zmod
        monkeypatch.setattr(coneprobe, "circle_to_zmod",
                            lambda angle, n: (true_theta(angle, n) + 1) % n)
        row = _coneprobe_row("coneprobe.roundtrip")
        assert (row.status, row.sample_size, row.witness) == ("fail", 2, "k=0 n=2")

    def test_cyclic_norm_plus_one_fails_the_arc_identity(self, monkeypatch):
        true_norm = coneprobe.cyclic_norm
        monkeypatch.setattr(coneprobe, "cyclic_norm", lambda k, n: true_norm(k, n) + 1)
        row = _coneprobe_row("coneprobe.arc_identity")
        assert (row.status, row.sample_size, row.witness) == ("fail", 1, "a=0 b=0 n=1")

    def test_shifted_array_theta_replays_the_passing_roundtrip(self, monkeypatch):
        # the arrays fail, the scalar loop they replay holds
        true_theta = coneprobe.circle_to_zmod_array
        monkeypatch.setattr(coneprobe, "circle_to_zmod_array",
                            lambda angles, n: (true_theta(angles, n) + 1) % n)
        calls = []
        scalar = coneprobe.circle_to_zmod
        monkeypatch.setattr(coneprobe, "circle_to_zmod",
                            lambda angle, n: calls.append(n) or scalar(angle, n))
        row = _coneprobe_row("coneprobe.roundtrip")
        assert (row.status, row.sample_size) == ("pass", 64 * 65 // 2)
        assert len(calls) > 64 * 65 // 2


class TestLimitCheckWitnesses:
    """coneprobe.monotonicity, admissibility and scaling name the clause they
    fail on."""

    def test_reversed_estimates_fail_monotonicity_at_the_first_trial(self, monkeypatch):
        # negated series reverse every tail statistic, and a_n < b_n strictly
        true_estimate = coneprobe.estimate_limit
        monkeypatch.setattr(coneprobe, "estimate_limit",
                            lambda values, *args: true_estimate([-v for v in values], *args))
        row = _coneprobe_row("coneprobe.monotonicity")
        assert (row.status, row.witness) == ("fail", "trial 0: tail_min of a above b's")

    @pytest.mark.parametrize("patch, witness", [
        ("admissibility", "square-cycle family admissible at 25.0"),
        ("estimate_limit", "alternating series converged"),
    ])
    def test_admissibility_names_the_failed_series(self, monkeypatch, patch, witness):
        true_estimate = coneprobe.estimate_limit
        fakes = {"admissibility": lambda seq, bound: (True, {}),
                 "estimate_limit": lambda values, tail=coneprobe.TAIL_FRACTION, tol=None:
                 true_estimate(values, tail, 1.0)}
        monkeypatch.setattr(coneprobe, patch, fakes[patch])
        row = _coneprobe_row("coneprobe.admissibility")
        assert (row.status, row.sample_size, row.witness) == ("fail", 5, witness)

    def test_scaling_names_the_stage(self, monkeypatch):
        true_normalized = ScaledSequence.normalized
        monkeypatch.setattr(ScaledSequence, "normalized", lambda self: tuple(
            v + (n == 7) for (n, _), v in zip(self.stages, true_normalized(self))))
        row = _coneprobe_row("coneprobe.scaling")
        assert (row.status, row.witness) == ("fail", "stage 7")


class TestSequenceContraction:
    def test_triangular_family(self):
        def distance(n, x, y):
            return matnorm.bareiss_rank((x - y).rows) if n else 0

        def sample(n, count, seed):
            rng = np.random.default_rng((seed, n))
            return [matnorm.random_unit_triangular(rng, n) for _ in range(count)]

        family = StageFamily(
            name="upper-triangular",
            distance=distance,
            project=lambda n, x: matnorm.triangular_project(x),
            include=lambda n, x: matnorm.embed(x, n),
            sample=sample,
            identity_at=lambda n: matnorm.RationalMatrix.identity(n),
        )
        report = check_sequence_contraction(family, range(2, 6), 6, seed=4, expected_k=1)
        assert report["expansions"] == 0
        assert report["inclusion_defects"] == 0
        assert report["smallest_working_k"] <= 1

    def test_projects_each_sample_once_per_stage(self):
        projected = []

        def project(n, x):
            projected.append(n)
            return x[:-1]

        family = StageFamily(
            name="prefix",
            distance=lambda n, x, y: sum(a != b for a, b in zip(x, y)),
            project=project,
            include=lambda n, x: x + (0,),
            sample=lambda n, count, seed: [tuple((seed + i + j) % 3 for j in range(n))
                                           for i in range(count)],
            identity_at=lambda n: (0,) * n,
        )
        report = check_sequence_contraction(family, range(2, 6), 8, seed=4, expected_k=1)
        assert report["pairs_checked"] == 4 * 28
        assert projected == [n for n in range(2, 6) for _ in range(8)]

    def test_scaling_constant_rescales_exactly(self):
        seq = load_sequence({"family": "cycle", "stages": list(range(1, 20))})
        doubled = ScaledSequence(seq.stages, lambda n: 2.0 * n)
        assert all(a == b / 2.0 for a, b in zip(doubled.normalized(), seq.normalized()))


def test_sequence_validation():
    with pytest.raises(ValueError):
        ScaledSequence(((1, -1.0),), lambda n: float(n))
    with pytest.raises(ValueError):
        ScaledSequence(((0, 1.0),), lambda n: float(n))
