"""Rank norms, the three matrix projections and the two-prime stack kernel."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conecheck import matnorm, suites
from conecheck.matnorm import (
    HADAMARD_LOG2_LIMIT,
    P1,
    P2,
    EntryBoundError,
    FloatMatrix,
    NotOrthogonalError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotTriangularError,
    NotUnitError,
    RankNormValue,
    RationalMatrix,
    SingularError,
    bareiss_determinant,
    bareiss_rank,
    elementary_rotation,
    embed,
    gauss_rank,
    hadamard_log2,
    int64_matmul,
    leading_minor_signs,
    modular_rank,
    numeric_rank_stack,
    permutation_matrix,
    random_so,
    random_so_stack,
    random_spd,
    random_spd_stack,
    random_rational_triangular,
    random_rational_triangular_stack,
    random_unit_triangular,
    random_unit_triangular_stack,
    rank_norm_exact,
    rank_norm_numeric,
    so_project,
    so_project_stack,
    spd_project,
    triangular_project,
)
from conecheck.perms import Permutation, tr_norm
from conecheck.report import RunConfig
from test_perms import walk_sites


class TestExactRank:
    def test_identity(self):
        assert rank_norm_exact(RationalMatrix.identity(5)).value == 0

    def test_one_moved_direction(self):
        g = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert rank_norm_exact(g).value == 1

    def test_unipotent_column_against_second_oracle(self):
        # two entries in one superdiagonal column: rank rk(g - id) = 1
        g = RationalMatrix([
            [1, 0, 3, 0, 0],
            [0, 1, 5, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ])
        shifted = g.minus_identity().rows
        assert gauss_rank(shifted) == 1  # the independent elimination
        assert rank_norm_exact(g).value == 1

    def test_singular_rejected(self):
        with pytest.raises(SingularError):
            rank_norm_exact(RationalMatrix([[1, 0], [1, 0]]))

    def test_backends_agree_on_random_integer_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            rows = [[int(rng.integers(-4, 5)) for _ in range(n)] for _ in range(n)]
            assert bareiss_rank(rows) == gauss_rank(rows)

    def test_backends_agree_on_fractions(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert bareiss_rank(rows) == gauss_rank(rows) == 1

    def test_determinant(self):
        assert bareiss_determinant([[2, 1], [1, 2]]) == 3
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[Fraction(1, 2), 0], [0, 4]]) == 2

    def test_determinant_is_the_leibniz_sum(self):
        # an independent Fraction determinant: the signed sum over S_n
        def leibniz(rows):
            n = len(rows)
            return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
                       * math.prod(Fraction(rows[i][p[i]]) for i in range(n))
                       for p in itertools.permutations(range(n)))

        rng = np.random.default_rng(17)
        kinds = {"singular": 0, "swap": 0, "other": 0}
        for n in range(6):
            for trial in range(30):
                rows = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                         if trial % 2 else int(rng.integers(-3, 4)) for _ in range(n)]
                        for _ in range(n)]
                if n >= 2 and trial % 3 == 1:  # the last row a multiple of the first
                    rows[-1] = [2 * x for x in rows[0]]
                elif n >= 2 and trial % 3 == 2:  # the first pivot needs a row swap
                    rows[0][0], rows[1][0] = 0, 1
                det = bareiss_determinant(rows)
                assert det == leibniz(rows)
                kinds["singular" if det == 0 else "swap" if trial % 3 == 2 else "other"] += 1
        assert min(kinds.values()) >= 30

    def test_rank_of_rectangular_rational_rows(self):
        rng = np.random.default_rng(19)
        for trial in range(300):
            r, c = (int(k) for k in rng.integers(0, 7, size=2))
            rows = [[Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))) for _ in range(c)]
                    for _ in range(r)]
            if r >= 3 and trial % 2:  # a dependent row
                rows[2] = [x - Fraction(1, 3) * y for x, y in zip(rows[0], rows[1])]
            if c >= 2 and trial % 3 == 0:  # a zero column for the pivot search to skip
                for row in rows:
                    row[1] = 0
            assert bareiss_rank(rows) == gauss_rank(rows)

    def test_fraction_free_update_is_written_once(self):
        # one exact elimination: the Bareiss update, divided by the previous
        # pivot, appears only in matnorm._bareiss
        assert walk_sites("// prev") == ["matnorm._bareiss"]

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        g = RationalMatrix([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
        for _ in range(20):
            h = random_unit_triangular(rng, 3)
            conj = h @ g @ h.inverse()
            assert rank_norm_exact(conj).value == rank_norm_exact(g).value


class TestNumericRank:
    def test_identity(self):
        assert rank_norm_numeric(FloatMatrix(np.eye(4))).value == 0

    def test_planar_rotation_rank_two(self):
        # singular values of R - I are 2 sin(theta/2) twice: theta = pi/3 gives 1.0
        theta = np.pi / 3
        rot = np.eye(4)
        rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        result = rank_norm_numeric(FloatMatrix(rot))
        assert result.value == 2
        assert abs(result.smallest_retained - 2 * np.sin(theta / 2)) < 1e-12

    def test_two_rotation_blocks_rank_four(self):
        blocks = np.eye(4)
        for offset, theta in ((0, 0.9), (2, 2.1)):
            blocks[offset:offset + 2, offset:offset + 2] = [
                [np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        assert rank_norm_numeric(FloatMatrix(blocks)).value == 4


class TestTriangularProjection:
    def test_identity(self):
        assert triangular_project(RationalMatrix.identity(4)) == RationalMatrix.identity(3)

    def test_diagonal_rank_drop(self):
        g = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        p = triangular_project(g)
        assert p == RationalMatrix.identity(2)
        assert rank_norm_exact(g).value == 1

    def test_homomorphism_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            g, h = random_unit_triangular(rng, n), random_unit_triangular(rng, n)
            assert triangular_project(g @ h) == \
                triangular_project(g) @ triangular_project(h)
            x = g @ h.inverse()
            assert bareiss_rank(triangular_project(x).minus_identity().rows) <= \
                bareiss_rank(x.minus_identity().rows)
            drop = embed(triangular_project(g), n) @ g.inverse()
            assert bareiss_rank(drop.minus_identity().rows) <= 1

    def test_not_triangular(self):
        with pytest.raises(NotTriangularError):
            triangular_project(RationalMatrix([[1, 0], [1, 1]]))

    def test_singular_diagonal(self):
        with pytest.raises(SingularError):
            triangular_project(RationalMatrix([[0, 1], [0, 1]]))


class TestSpdProjection:
    def test_identity(self):
        assert spd_project(RationalMatrix.identity(3)) == RationalMatrix.identity(2)

    def test_diagonal(self):
        a = RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert spd_project(a) == RationalMatrix([[1, 0], [0, 2]])

    def test_rank_inequality_random(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a, b = random_spd(rng, n), random_spd(rng, n)
            assert bareiss_rank((spd_project(a) - spd_project(b)).rows) <= \
                bareiss_rank((a - b).rows)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_project(RationalMatrix([[1, 2], [0, 1]]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_project(RationalMatrix([[1, 2], [2, 1]]))


class TestElementaryRotation:
    def test_fixed_pole_gives_identity(self):
        r = elementary_rotation([0.0, 0.0, 1.0])
        assert np.allclose(r.data, np.eye(3))

    def test_quarter_turn_in_dimension_two(self):
        r = elementary_rotation([1.0, 0.0])
        assert np.allclose(r.data, [[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(r.data @ [1.0, 0.0], [0.0, 1.0])

    def test_antipode_is_half_turn(self):
        r = elementary_rotation([0.0, 0.0, 0.0, -1.0])
        expected = np.diag([1.0, 1.0, -1.0, -1.0])
        assert np.allclose(r.data, expected)
        assert abs(np.linalg.det(r.data) - 1.0) < 1e-12

    def test_general_position(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 6, 9):
            for _ in range(20):
                x = rng.normal(size=n)
                x /= np.linalg.norm(x)
                r = elementary_rotation(x)
                assert np.allclose(r.data @ x, np.eye(n)[:, n - 1], atol=1e-12)
                assert np.allclose(r.data.T @ r.data, np.eye(n), atol=1e-12)
                assert rank_norm_numeric(r).value <= 2

    def test_not_unit(self):
        with pytest.raises(NotUnitError):
            elementary_rotation([1.0, 1.0])


class TestSoProjection:
    def test_identity(self):
        p = so_project(FloatMatrix(np.eye(5)))
        assert np.allclose(p.data, np.eye(4))

    def test_block_preserved_when_pole_is_fixed(self):
        theta = 1.1
        g = np.eye(4)
        g[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        p = so_project(FloatMatrix(g))
        assert np.allclose(p.data, g[:3, :3])

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for n in (4, 6, 9):
            for _ in range(40):
                g, h = random_so(rng, n), random_so(rng, n)
                pg, ph = so_project(g), so_project(h)
                proj = rank_norm_numeric(FloatMatrix(pg.data @ ph.data.T))
                assert proj.value <= rank_norm_numeric(
                    FloatMatrix(g.data @ h.data.T)).value
                assert rank_norm_numeric(
                    FloatMatrix(embed(pg, n).data @ g.data.T)).value <= 2

    def test_parity(self):
        rng = np.random.default_rng(9)
        for n in (4, 5, 9):
            for _ in range(30):
                g = random_so(rng, n)
                g.assert_orthogonal()
                g.assert_special()
                # non-trivial rotation planes come in twos
                assert rank_norm_numeric(g).value % 2 == 0

    def test_not_orthogonal(self):
        with pytest.raises(NotOrthogonalError):
            so_project(FloatMatrix(np.eye(3) * 2))


class TestPermutationMatrices:
    def test_rank_equals_transposition_norm(self):
        import itertools

        for images in itertools.permutations(range(5)):
            p = Permutation.from_images(images)
            assert rank_norm_exact(permutation_matrix(p, 5)).value == tr_norm(p)

    def test_one_elimination_per_permutation_matrix(self, monkeypatch):
        # a permutation matrix is invertible by construction: only P - id is eliminated
        eliminated = []
        real = matnorm.bareiss_rank
        monkeypatch.setattr(matnorm, "bareiss_rank", lambda rows: eliminated.append(rows)
                            or real(rows))
        g = permutation_matrix(Permutation.parse("(1 3)(2 5 4)"), 6)
        assert rank_norm_exact(g).value == 3
        assert eliminated == [g.minus_identity().rows]

    @pytest.mark.parametrize("rows", [
        [[1, 0], [1, 0]],  # one 1 per row, not per column
        [[1, 1], [0, 0]],  # one 1 per column, not per row
        [[1, 1, 0], [0, 0, 1], [1, 1, 0]],
        [[0, 0], [0, 0]],
    ])
    def test_singular_zero_one_matrix_is_not_a_permutation_matrix(self, rows):
        with pytest.raises(SingularError):
            rank_norm_exact(RationalMatrix(rows))


# --- the two-prime kernel on int64 stacks -----------------------------------------


@st.composite
def integer_stacks(draw):
    """(N, n, n) stacks with n = 0..10: random entries, some rows zeroed, and
    products of n x r and r x n factors that cannot have rank above r."""
    n = draw(st.integers(0, 10))
    count = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    spread = draw(st.sampled_from((1, 3, 50)))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("random", "zero rows", "low rank", "zero")))
    stack = rng.integers(-spread, spread + 1, size=(count, n, n))
    if kind == "zero rows":
        stack[:, rng.random(n) < 0.5, :] = 0
    elif kind == "low rank":
        r = draw(st.integers(0, max(n - 1, 0)))
        stack = rng.integers(-3, 4, size=(count, n, r)) @ rng.integers(-3, 4, size=(count, r, n))
    elif kind == "zero":
        stack[:] = 0
    return stack


class TestModularKernel:
    def test_primes(self):
        for p in (P1, P2):
            assert 2 ** 30 < p < 2 ** 31
            assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
        # two residues fix any |value| < 2^60 with room to spare
        assert P1 * P2 > 2 ** 61

    @settings(max_examples=80, deadline=None)
    @given(integer_stacks())
    def test_rank_matches_both_oracles(self, stack):
        ranks = modular_rank(stack)
        for matrix, rank in zip(stack.tolist(), ranks):
            assert rank == bareiss_rank(matrix) == gauss_rank(matrix)

    def test_large_entries_fall_back_to_bareiss(self, monkeypatch):
        rng = np.random.default_rng(12)
        stack = rng.integers(2 ** 19, 2 ** 20, size=(6, 4, 4)) * rng.choice((-1, 1), (6, 4, 4))
        stack[0, 3] = stack[0, 0] + stack[0, 1]  # rank 3
        assert (hadamard_log2(stack) >= HADAMARD_LOG2_LIMIT).all()
        calls = []
        real = matnorm.bareiss_rank
        monkeypatch.setattr(matnorm, "bareiss_rank", lambda rows: calls.append(rows) or real(rows))
        ranks = modular_rank(stack)
        assert len(calls) == 6
        assert list(ranks) == [real(m) for m in stack.tolist()] and ranks[0] == 3

    def test_a_stack_of_several_blocks(self, monkeypatch):
        # 250 matrices of 10 x 10 span four blocks; only the one at 100, in
        # the second block, goes to bareiss_rank
        rng = np.random.default_rng(14)
        stack = rng.integers(-3, 4, size=(250, 10, 10))
        stack[::7, 9] = stack[::7, 0]  # rank below 10
        stack[100] = rng.integers(2 ** 19, 2 ** 20, size=(10, 10))
        stack[100, 9] = stack[100, 0]  # rank 9
        assert len(stack) * 100 > 3 * matnorm.RANK_BLOCK_ENTRIES
        assert np.flatnonzero(hadamard_log2(stack) >= HADAMARD_LOG2_LIMIT).tolist() == [100]
        calls = []
        real = matnorm.bareiss_rank
        monkeypatch.setattr(matnorm, "bareiss_rank", lambda rows: calls.append(rows) or real(rows))
        ranks = modular_rank(stack)
        assert calls == [stack[100].tolist()]
        assert list(ranks) == [real(m) for m in stack.tolist()] and ranks[100] == 9

    def test_signs_match_bareiss_determinant(self):
        rng = np.random.default_rng(13)
        for n in range(0, 9):
            stacks = [random_spd_stack(rng, n, 30), rng.integers(-3, 4, size=(30, n, n))]
            singular = rng.integers(-2, 3, size=(10, n, n))
            if n > 1:
                singular[:, 1] = singular[:, 0]  # every leading minor from k = 2 on is 0
            stacks.append(singular)
            for stack in stacks:
                signs = leading_minor_signs(stack)
                for matrix, row in zip(stack.tolist(), signs.tolist()):
                    assert row == [int(np.sign(bareiss_determinant([r[:k] for r in matrix[:k]])))
                                   for k in range(1, n + 1)]

    def test_signs_of_large_minors(self):
        # minors near 2^59 still come back exactly; beyond 2^60 Bareiss decides
        a = np.diag([2 ** 29, 2 ** 30]).astype(np.int64)
        a[1, 0] = 1
        assert leading_minor_signs(a[None]).tolist() == [[1, 1]]
        b = np.array([[[2 ** 31, 1], [1, -(2 ** 31)]]], dtype=np.int64)
        assert hadamard_log2(b)[0] >= HADAMARD_LOG2_LIMIT
        assert leading_minor_signs(b).tolist() == [[1, -1]]

    def test_matmul_guard(self):
        def full(value):
            return np.full((2, 4, 4), value, dtype=np.int64)

        # max|a| max|b| n = 2^61: exact
        assert (int64_matmul(full(2 ** 29), full(2 ** 30)) == 2 ** 61).all()
        # 2^62 is refused; 2^64 would wrap around in int64
        for a, b in ((2 ** 30, 2 ** 30), (2 ** 31, -(2 ** 31))):
            with pytest.raises(EntryBoundError):
                int64_matmul(full(a), full(b))

    @pytest.mark.parametrize("n", range(0, 11))
    def test_batched_draws_replay_the_per_matrix_stream(self, n):
        # the rational stack holds each draw doubled, which clears its denominators
        for draw_one, draw_stack, scale in (
                (random_unit_triangular, random_unit_triangular_stack, 1),
                (random_rational_triangular, random_rational_triangular_stack, 2),
                (random_spd, random_spd_stack, 1)):
            one, many = np.random.default_rng(n), np.random.default_rng(n)
            reference = [tuple(tuple(scale * x for x in row) for row in draw_one(one, n).rows)
                         for _ in range(25)]
            stack = draw_stack(many, n, 25)
            assert stack.dtype == np.int64
            assert [RationalMatrix(m).rows for m in stack.tolist()] == reference
            assert one.bit_generator.state == many.bit_generator.state
            assert one.normal() == many.normal()


class TestStackedMatnormChecks:
    """matnorm.triangular and matnorm.spd run on stacks, with an oracle pair per
    block and the reference loop replayed on any failure."""

    @staticmethod
    def _checks(**overrides):
        cfg = RunConfig.small()
        for name, value in overrides.items():
            setattr(cfg, name, value)
        return {c.check_id: c for c in suites.run_matnorm(cfg)}

    @pytest.mark.parametrize("draw, sizes", [
        (random_unit_triangular_stack, range(1, 17)),
        (random_rational_triangular_stack, range(2, 7)),
        (random_spd_stack, range(2, 13)),
    ], ids=["unit", "rational", "spd"])
    def test_triangular_difference_ranks_are_the_literal_ranks(self, monkeypatch, draw, sizes):
        # the kernel ranks e(p(a)) - a, p(a) - p(b) and a - b.  For B_n the
        # definitions rank e(p(g)) g^-1 - I, p(x) - I and x - I, with
        # x = g h^-1; for SPD they are those three differences themselves
        spd = draw is random_spd_stack
        stacked = suites._spd_stacked if spd else functools.partial(
            suites._triangular_stacked, draw=draw)
        ranks, real, pairs = [], matnorm.modular_rank, 8
        monkeypatch.setattr(matnorm, "modular_rank",
                            lambda stack: ranks.append(real(stack)) or ranks[-1])
        for n in sizes:
            flagged, disagreements = stacked(np.random.default_rng(n), n, pairs, 0)
            assert not flagged and not list(disagreements)
            stack = draw(np.random.default_rng(n), n, 2 * pairs).tolist()
            for k, got in enumerate(ranks.pop().reshape(3, pairs).T.tolist()):
                a, b = RationalMatrix(stack[2 * k]), RationalMatrix(stack[2 * k + 1])
                if spd:
                    ap, bp = spd_project(a), spd_project(b)
                    literal = [bareiss_rank(m.rows) for m in (embed(ap, n) - a, ap - bp, a - b)]
                else:
                    x = a @ b.inverse()
                    drop = embed(triangular_project(a), n) @ a.inverse()
                    literal = [bareiss_rank(m.minus_identity().rows)
                               for m in (drop, triangular_project(x), x)]
                assert got == literal

    def test_modular_rank_off_by_one_fails_triangular(self, monkeypatch):
        real = matnorm.modular_rank
        monkeypatch.setattr(matnorm, "modular_rank", lambda stack: real(stack) + 1)
        checks = self._checks()
        for check_id in ("matnorm.triangular", "matnorm.spd"):
            assert checks[check_id].status == "fail"
            assert checks[check_id].witness.startswith("ranks: stacked ")
        assert checks["matnorm.permutation_cross"].witness == "rank backends disagree"

    def test_broken_bareiss_rank_fails_both_through_the_oracle(self, monkeypatch):
        # Every rank below 6 x 6 reads 0: the reference loops alone pass under
        # this patch (so did the per-pair check before the stacks), so only the
        # oracle pair of each block can catch it.
        real = matnorm.bareiss_rank
        monkeypatch.setattr(matnorm, "bareiss_rank",
                            lambda rows: 0 if len(rows) < 6 else real(rows))
        checks = self._checks()
        assert checks["matnorm.triangular"].witness == \
            "ranks: stacked [1, 0, 1] != reference [0, 0, 0] at n=2 pair 5"
        assert checks["matnorm.spd"].witness == \
            "ranks: stacked [2, 0, 2] != reference [0, 0, 0] at n=2 pair 1"
        # the oracle's disagreement is one more case after the replayed block;
        # triangular's n = 1 oracle pair has x = I, whose rank is 0 either way,
        # so its 40 pairs pass before the n = 2 block
        assert checks["matnorm.triangular"].sample_size == 40 + 41
        assert checks["matnorm.spd"].sample_size == 41

    def test_broken_projection_replays_the_reference_witness(self, monkeypatch):
        # values read from the per-pair check before the stacks, under this patch
        real = matnorm.triangular_project

        def broken(g):
            p = real(g)
            if g.n < 4:
                return p
            rows = [list(r) for r in p.rows]
            rows[0][0] = -rows[0][0]
            return RationalMatrix(rows)

        monkeypatch.setattr(matnorm, "triangular_project", broken)
        check = self._checks()["matnorm.triangular"]
        assert (check.status, check.witness, check.sample_size) == \
            ("fail", "homomorphism n=4", 121)

    def test_refused_block_replays_the_reference(self, monkeypatch):
        def refuse(*args):
            raise EntryBoundError("refused")

        reference = self._checks()
        for name in ("random_unit_triangular_stack", "random_rational_triangular_stack",
                     "random_spd_stack"):
            monkeypatch.setattr(matnorm, name, refuse)
        calls = []
        real = matnorm.bareiss_rank
        monkeypatch.setattr(matnorm, "bareiss_rank", lambda rows: calls.append(1) or real(rows))
        checks = self._checks()
        assert [c.as_dict() for c in checks.values()] == \
            [c.as_dict() for c in reference.values()]
        assert len(calls) > 3 * 40 * 5  # every pair went through bareiss_rank


class TestPermutationCross:
    """matnorm.permutation_cross ranks P - I of all of S_6 as one stack and reads
    supp and tr off the image arrays; seeded elements re-run rank_norm_exact,
    supp_norm and tr_norm on Permutations as the oracle."""

    @staticmethod
    def _row():
        return next(c for c in suites.run_matnorm(RunConfig.small())
                    if c.check_id == "matnorm.permutation_cross")

    def test_eliminates_only_the_oracle_sample(self, monkeypatch):
        # the per-element loop eliminated all 720 matrices
        calls = []
        real = matnorm.rank_norm_exact
        monkeypatch.setattr(matnorm, "rank_norm_exact", lambda g: calls.append(g) or real(g))
        row = self._row()
        assert (row.status, row.sample_size) == ("pass", 820)
        assert len(calls) == suites.ORACLE_SAMPLES

    def test_tr_off_by_one_replays_the_per_element_row(self, monkeypatch):
        real = suites.tr_norm
        monkeypatch.setattr(suites, "tr_norm", lambda p: real(p) + (not p.is_identity()))
        row = self._row()
        assert (row.status, row.sample_size, row.witness) == \
            ("fail", 102, "rank vs transposition norm at (5 6)")

    def test_rank_off_by_one_replays_the_per_element_row(self, monkeypatch):
        real = matnorm.rank_norm_exact
        monkeypatch.setattr(matnorm, "rank_norm_exact",
                            lambda g: matnorm.RankNormValue(real(g).value + 1, "exact-elimination"))
        row = self._row()
        assert (row.status, row.sample_size, row.witness) == ("fail", 101, "()")

    def test_supp_off_by_one_fails_through_the_oracle(self, monkeypatch):
        # rk <= supp + 1 <= 3 rk still holds, so the per-element loop passed
        # under this fault; the oracle's disagreement is one case after its replay
        real = suites.supp_norm
        monkeypatch.setattr(suites, "supp_norm", lambda p: real(p) + (not p.is_identity()))
        row = self._row()
        assert (row.status, row.sample_size) == ("fail", 721 + 100)
        assert row.witness.startswith("rank, supp or tr arrays disagree at ")


def _rank_value(rank, smallest, largest, tau):
    return RankNormValue(int(rank), "singular-threshold", threshold=tau,
                         smallest_retained=None if np.isnan(smallest) else float(smallest),
                         largest=float(largest))


class TestStackedSO:
    """matnorm.so runs each n as one stack.  One seeded pair per n re-runs
    random_so, so_project and numeric_rank as the oracle, and _so_pairs is the
    replay."""

    @staticmethod
    def _so_row(cfg=None):
        return next(c for c in suites.run_matnorm(cfg or RunConfig.small())
                    if c.check_id == "matnorm.so")

    @staticmethod
    def _watch_replays(monkeypatch):
        """The n of each replay of the reference loop _so_pairs."""
        replayed, real = [], suites._so_pairs
        monkeypatch.setattr(suites, "_so_pairs", lambda rng, n, pairs, tau, stats: (
            replayed.append(n) or real(rng, n, pairs, tau, stats)))
        return replayed

    @pytest.mark.parametrize("n", range(2, 16))  # up to so_max_n's cap
    def test_stack_kernels_have_the_scalar_bits(self, n):
        one, many = np.random.default_rng(n), np.random.default_rng(n)
        scalar = [random_so(one, n) for _ in range(30)]
        stack = random_so_stack(many, n, 30)
        assert one.bit_generator.state == many.bit_generator.state
        assert [g.data.tobytes() for g in scalar] == [g.tobytes() for g in stack]
        projected, refused = so_project_stack(stack)
        assert not refused.any()
        assert [so_project(g).data.tobytes() for g in scalar] == \
            [np.ascontiguousarray(p).tobytes() for p in projected]
        for tau in (1e-8, 0.3):
            stacked = numeric_rank_stack(stack - np.eye(n), tau)
            assert [rank_norm_numeric(g, tau) for g in scalar] == \
                [_rank_value(*values, tau) for values in zip(*stacked)]

    def test_so_project_stack_masks_what_so_project_refuses(self):
        rng = np.random.default_rng(3)
        rotation = random_so(rng, 4).data
        swap = np.eye(4)[[1, 0, 2, 3]]
        stack = np.stack([
            rotation,
            np.eye(4),                       # g e_n = e_n: the identity rotation
            np.diag([1.0, 1.0, -1.0, -1.0]),  # g e_n = -e_n: the half-turn
            2 * rotation,                    # not orthogonal
            swap @ rotation,                 # determinant -1
        ])
        _, refused = so_project_stack(stack)
        assert refused.tolist() == [False, True, True, True, True]
        for bad in stack[3:]:
            with pytest.raises((NotOrthogonalError, matnorm.NotSpecialError)):
                so_project(FloatMatrix(bad))

    @pytest.mark.parametrize("tau", [1e-8, 0.02])
    def test_each_block_leaves_the_reference_rng_state_and_stats(self, tau):
        # 70 pairs at n = 4..12 are one stack each, with the oracle at pair 33;
        # at tau = 0.02 most pairs are borderline
        for n in range(4, 13):
            stacked, loop = np.random.default_rng(n), np.random.default_rng(n)
            stats = [{"flagged": 0, "flagged_failures": 0, "worst": None} for _ in range(2)]
            flagged, disagreements = suites._so_stacked(stacked, n, 70, 33, tau, stats[0])
            assert list(suites._so_pairs(loop, n, 70, tau, stats[1])) == [None] * 70
            assert (flagged, disagreements) == (False, [])
            assert stacked.bit_generator.state == loop.bit_generator.state
            assert stats[0] == stats[1]
        assert stats[0]["flagged"] > 0 if tau > 1e-8 else stats[0]["flagged"] == 0

    def test_runs_the_scalar_code_only_on_the_oracle_pairs(self, monkeypatch):
        calls = []
        real = matnorm.random_so
        monkeypatch.setattr(matnorm, "random_so", lambda rng, n: calls.append(n) or real(rng, n))
        cfg = RunConfig.small()
        assert self._so_row(cfg).status == "pass"
        assert calls == [n for n in range(cfg.so_min_n, cfg.so_max_n + 1) for _ in range(2)]

    @pytest.mark.parametrize("cfg", [RunConfig.small(), RunConfig(matrix_pairs=166)])
    def test_draws_each_n_as_one_stack(self, monkeypatch, cfg):
        calls, real = [], matnorm.random_so_stack
        monkeypatch.setattr(matnorm, "random_so_stack",
                            lambda rng, n, count: calls.append(n) or real(rng, n, count))
        assert self._so_row(cfg).status == "pass"
        assert calls == list(range(cfg.so_min_n, cfg.so_max_n + 1))

    def test_a_half_turn_row_replays_its_block(self, monkeypatch):
        # g e_n = -e_n takes elementary_rotation's half-turn case, which the
        # stack refuses: each n's stack is flagged before any SVD runs,
        # and the reference loop, drawing its own matrices, passes
        reference = self._so_row()
        real = matnorm.random_so_stack

        def with_half_turn(rng, n, count):
            stack = real(rng, n, count)
            stack[0] = np.diag([1.0] * (n - 2) + [-1.0, -1.0])
            return stack

        monkeypatch.setattr(matnorm, "random_so_stack", with_half_turn)
        replayed = self._watch_replays(monkeypatch)
        assert self._so_row().as_dict() == reference.as_dict()
        assert replayed == [4, 5, 6]

    def _perturbed_svd(self, monkeypatch, perturb):
        # the stacked kernel's SVDs are the only ones of 3-D stacks
        real, calls = np.linalg.svd, []

        def svd(a, *args, **kwargs):
            sv = real(a, *args, **kwargs)
            if np.ndim(a) == 3:
                calls.append(a.shape)
                sv = perturb(sv.copy(), len(calls))
            return sv

        monkeypatch.setattr(np.linalg, "svd", svd)
        return calls

    @pytest.mark.parametrize("tau", [1e-8, 0.02])
    def test_a_rank_changing_singular_value_replays_the_block(self, monkeypatch, tau):
        # The smallest singular value of g - I at pair 0 of n = 4 set to 0 makes
        # its rank odd: the block is flagged and the reference loop replays it
        # and passes, so the row reads as the per-pair loop's.  At tau = 0.02
        # most pairs are borderline, so stacked counts kept as well would show.
        cfg = RunConfig.small()
        cfg.tau = tau
        reference = self._so_row(cfg)

        def zero_first(sv, call):
            if call == 1:
                sv[0, -1] = 0.0
            return sv

        self._perturbed_svd(monkeypatch, zero_first)
        replayed = self._watch_replays(monkeypatch)
        assert self._so_row(cfg).as_dict() == reference.as_dict()
        assert replayed == [4]
        assert reference.status == "pass"

    def test_a_shifted_singular_value_fails_through_the_oracle(self, monkeypatch):
        # Every stacked singular value one part in 2^40 high: no rank moves and
        # no pair is flagged, so only the oracle pair can see it.  The n = 4
        # block replays and passes, then the disagreement fails as one more case.
        self._perturbed_svd(monkeypatch, lambda sv, call: sv * (1 + 2.0 ** -40))
        row = self._so_row()
        assert (row.status, row.sample_size) == ("fail", 41)
        assert row.witness.startswith("ranks: stacked [RankNormValue(value=4, ")
        assert row.witness.endswith(" at n=4 pair 21")
