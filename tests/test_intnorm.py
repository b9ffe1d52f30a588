"""The factorial-generator word norm on the integers."""

import pytest
from hypothesis import given, settings, strategies as st

from conecheck.intnorm import (
    FactorialGenerators,
    IntNormResult,
    IndexBudgetExceededError,
    lower_bound_xn,
    norm_exact,
    norm_upper,
    norm_xn,
    parse_target,
    torsion_probe,
)
from conecheck.wordnorm import bfs

GENS = FactorialGenerators(base=2, max_index=14)


def test_members():
    assert GENS.members[:5] == (1, 2, 8, 48, 384)
    assert GENS.x(3) == 24
    assert GENS.x(0) == 0


class TestUpper:
    def test_24(self):
        result = norm_upper(24, GENS)
        assert result.certificate == (8, 8, 8)
        assert result.best_upper == 3

    def test_zero(self):
        result = norm_upper(0, GENS)
        assert result.best_upper == 0 and result.certificate == ()

    def test_x5_by_construction(self):
        result = norm_upper(GENS.x(5), GENS)
        assert result.best_upper == 5  # n copies of 2^{n-1}(n-1)!

    def test_signed_correction(self):
        assert norm_upper(46, GENS).best_upper == 2  # 48 - 2

    def test_budget(self):
        tiny = FactorialGenerators(base=2, max_index=2)
        with pytest.raises(IndexBudgetExceededError):
            norm_upper(10**9, tiny, step_budget=10)


def test_certificate_check_returns_a_witness():
    # a witness, not an assert, so the check survives python -O
    result = IntNormResult(3, (16, 8), "exact-search")
    assert result.check(24) == "certificate [16, 8] for 24 with value 3"
    assert result.check(25) == "certificate [16, 8] for 25 with value 3"
    assert IntNormResult(2, (16, 8), "exact-search").check(24) is None
    assert IntNormResult(None, None, "exact-search").check(7) is None


class TestExact:
    def test_24(self):
        result = norm_exact(24, GENS)
        assert result.value == 3
        assert result.check(24) is None

    def test_three(self):
        result = norm_exact(3, GENS)
        assert result.value == 2
        assert sorted(result.certificate) == [1, 2]

    def test_member(self):
        assert norm_exact(48, GENS).value == 1

    def test_unknown_is_a_value(self):
        result = norm_exact(GENS.x(6), GENS, depth_cap=3)
        assert result.value is None
        assert result.best_upper is not None
        assert result.window  # the search window is recorded

    def test_negative_symmetric(self):
        assert norm_exact(-46, GENS).value == norm_exact(46, GENS).value

    def test_per_depth_windows_match_the_window_of_the_cap(self):
        # depth d searches window_for(x, d).  BFS by steps +-g, g in the window
        # of the cap, over [-(596 + M), 596 + M] with M its largest member,
        # gives every norm up to 9 on [-596, 596], as in intnorm.window_stability
        steps = GENS.window_for(596, 9)
        reach = 596 + steps[-1]
        dist = bfs([0], lambda y: [z for g in steps for z in (y + g, y - g) if abs(z) <= reach])
        for x in range(-596, 597):
            assert norm_exact(x, GENS, depth_cap=9).value == dist[x]
        # the result still reports the window of the cap
        assert norm_exact(500, GENS, depth_cap=18).window == GENS.window_for(500, 18)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-500, 500))
    def test_certificates_recompose(self, x):
        result = norm_exact(x, GENS)
        assert result.value is not None
        assert result.check(x) is None
        assert norm_upper(x, GENS).best_upper >= result.value


class TestLowerBound:
    def test_small(self):
        assert lower_bound_xn(1) == 1
        assert lower_bound_xn(3) == 3

    def test_matches_exact_search(self):
        for n in range(1, 5):
            assert lower_bound_xn(n) == norm_exact(GENS.x(n), GENS, depth_cap=n + 1).value

    def test_large_where_search_is_infeasible(self):
        assert lower_bound_xn(8) == 8
        assert lower_bound_xn(12) == 12

    def test_base_three(self):
        assert lower_bound_xn(4, base=3) == 4

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lower_bound_xn(0)


class TestNormXn:
    def test_exact_regime(self):
        for n in range(1, 6):
            assert norm_xn(n).value == n

    def test_sandwich_regime(self):
        for n in range(6, 9):
            result = norm_xn(n)
            assert result.value == n
            assert result.method == "lower-argument"


class TestTorsion:
    def test_base_two(self):
        report = torsion_probe(range(1, 9), base=2)
        assert not report["modeled_generating_set"]
        for row in report["rows"]:
            assert row["norm_x_n"] == row["n"]
            assert row["norm_t_x_n"] == 1

    def test_base_three_flagged(self):
        report = torsion_probe(range(1, 5), base=3)
        assert report["modeled_generating_set"]
        assert [(r["n"], r["norm_x_n"], r["norm_t_x_n"]) for r in report["rows"]] == \
            [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)]


def test_parse_target():
    assert parse_target("x(5)") == (1920, 2)
    assert parse_target("x(4,3)") == (648, 3)
    assert parse_target("-24") == (-24, 2)
    with pytest.raises(ValueError):
        parse_target("x(abc)")
