"""Sampled quasimorphisms: defect, homogenisation, lower bound."""

import math

import pytest

from conecheck.quasimorphism import (
    DegenerateDenominatorError,
    PowerOutsideSampleError,
    ProductOutsideSampleError,
    SampledQuasimorphism,
    estimate_defect,
    homogenise,
    integer_window,
    norm_lower_bound,
    window_word_norm,
)

WINDOW = 100


def window_pairs(limit):
    return [(a, b) for a in range(-limit, limit + 1) for b in range(-limit, limit + 1)]


def test_homomorphism_has_zero_defect():
    psi = integer_window(lambda n: float(n), WINDOW)
    assert estimate_defect(psi, window_pairs(50)) == 0.0


def test_parity_bump_defect_is_two():
    psi = integer_window(lambda n: float(n + n % 2), WINDOW)
    # brute force over the window: the worst additivity error is exactly 2
    worst = max(
        abs(psi.values[a + b] - psi.values[a] - psi.values[b])
        for a, b in window_pairs(40)
    )
    assert worst == 2.0
    assert estimate_defect(psi, window_pairs(40)) == 2.0


def test_constant_zero():
    psi = integer_window(lambda n: 0.0, WINDOW)
    assert estimate_defect(psi, window_pairs(30)) == 0.0


def test_product_outside_sample():
    psi = integer_window(lambda n: float(n), 5)
    with pytest.raises(ProductOutsideSampleError):
        estimate_defect(psi, [(5, 5)])


class TestHomogenise:
    def test_homomorphism_is_constant(self):
        psi = integer_window(lambda n: float(n), WINDOW)
        result = homogenise(psi, 3, 30)
        assert set(result.series) == {3.0}
        assert result.series[-1] == 3.0

    def test_parity_bump_tends_to_one(self):
        psi = integer_window(lambda n: float(n + n % 2), WINDOW)
        result = homogenise(psi, 1, WINDOW)
        assert result.series[0] == 2.0
        assert abs(result.series[-1] - 1.0) <= 2.0 / WINDOW
        # sanity: |stage-N estimate - psi(g)| <= defect within tolerance
        assert abs(result.series[-1] - psi.values[1]) <= 2.0 + 1e-9

    def test_finite_order_vanishes(self):
        modulus = 12
        psi = SampledQuasimorphism(
            values={k: math.sin(2 * math.pi * k / modulus) for k in range(modulus)},
            multiply=lambda a, b: (a + b) % modulus,
            identity=0,
        )
        result = homogenise(psi, 1, 10 * modulus)
        assert abs(result.series[-1]) <= 1.0 / modulus

    def test_power_outside_sample(self):
        psi = integer_window(lambda n: float(n), 4)
        with pytest.raises(PowerOutsideSampleError):
            homogenise(psi, 2, 3)

    def test_stage_count_positive(self):
        psi = integer_window(lambda n: float(n), 4)
        with pytest.raises(ValueError):
            homogenise(psi, 1, 0)


class TestNormLowerBound:
    def test_equality_case(self):
        assert norm_lower_bound(7.0, 1.0, 0.0, 7)

    def test_zero_value_trivial(self):
        assert norm_lower_bound(0.0, 0.0, 0.0, 0)

    def test_two_step_generators(self):
        norms = window_word_norm(60, (1, 2))
        assert norms[7] == 4
        assert norm_lower_bound(7.0, 2.0, 0.0, norms[7])

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominatorError):
            norm_lower_bound(1.0, 0.0, 0.0, 3)

    def test_violated_bound_reports_false(self):
        assert not norm_lower_bound(10.0, 1.0, 0.0, 5)

    def test_zero_map_on_cyclic_group(self):
        # homogeneous quasimorphisms vanish on torsion, so the zero map is
        # the only candidate on Z/n and the bound is trivial for every norm
        from conecheck.wordnorm import bfs_norm, cyclic_oracle

        table = bfs_norm(cyclic_oracle(12), {1})
        assert all(norm_lower_bound(0.0, 1.0, 0.0, table[k]) for k in range(12))


class TestWindowWordNorm:
    def test_unit_steps_give_absolute_value(self):
        norms = window_word_norm(40, (1,))
        assert all(norms[g] == abs(g) for g in range(-40, 41))

    def test_two_steps_give_halved_norm(self):
        norms = window_word_norm(40, (1, 2))
        assert all(norms[g] == (abs(g) + 1) // 2 for g in range(-40, 41))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            window_word_norm(10, (0,))
