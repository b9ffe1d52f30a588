"""Rank norms and the three matrix projections."""

from fractions import Fraction

import numpy as np
import pytest

from conecheck.matnorm import (
    FloatMatrix,
    NotOrthogonalError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotTriangularError,
    NotUnitError,
    RationalMatrix,
    SingularError,
    bareiss_determinant,
    bareiss_rank,
    elementary_rotation,
    embed,
    gauss_rank,
    permutation_matrix,
    random_so,
    random_spd,
    random_unit_triangular,
    rank_norm_exact,
    rank_norm_numeric,
    so_project,
    spd_project,
    triangular_project,
)
from conecheck.perms import Permutation, tr_norm


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
