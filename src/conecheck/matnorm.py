"""Rank norms rk(g - id) on matrix groups and three contraction projections:
the upper-triangular block projection, the SPD principal-minor projection and
the SO(n) elementary-rotation projection.

Two independent rank backends: fraction-free (Bareiss) elimination for exact
inputs, singular-value thresholding for orthogonal ones.  One Bareiss
elimination, _bareiss, serves both the exact rank and the exact determinant.
The naive Fraction elimination is kept as a second oracle and never removed.

Integer stacks (N, n, n) have a batched exact backend: elimination mod two
primes just below 2^31 (modular_rank, leading_minor_signs), exact wherever
Hadamard's bound stays below 2^60 and handed to the Bareiss routines
elsewhere.  Its int64 products refuse inputs whose entry bound reaches 2^62
(EntryBoundError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .perms import Permutation


class SingularError(ValueError):
    pass


class NotTriangularError(ValueError):
    pass


class NotSymmetricError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class NotUnitError(ValueError):
    pass


class NotOrthogonalError(ValueError):
    pass


class NotSpecialError(ValueError):
    pass


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
    return Fraction(a) / Fraction(b)


class RationalMatrix:
    """A square matrix over the rationals (entries int or Fraction), immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(x for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RationalMatrix({self.rows!r})"

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        cols = list(zip(*other.rows))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.rows)))

    def minus_identity(self) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(x - 1 if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.rows)
            )
        )

    def leading(self, k: int) -> "RationalMatrix":
        return RationalMatrix(tuple(row[:k] for row in self.rows[:k]))

    def is_upper_triangular(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.n) for j in range(i)
        )

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def inverse(self) -> "RationalMatrix":
        """Gauss-Jordan inverse; integer entries survive when divisions are exact."""
        n = self.n
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        for c in range(n):
            piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
            if piv is None:
                raise SingularError("matrix is singular")
            aug[c], aug[piv] = aug[piv], aug[c]
            pivot = aug[c][c]
            aug[c] = [_div(x, pivot) for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c] != 0:
                    factor = aug[i][c]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
        return RationalMatrix(tuple(tuple(row[n:]) for row in aug))


def _bareiss(rows) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of rows scaled by _integer_rows: the
    rank, the last pivot signed by the row swaps (on a nonsingular square
    matrix, its determinant times the scales), and the product of the scales."""
    m, denominator = _integer_rows(rows)
    n, cols = len(m), len(m[0]) if m else 0
    prev, sign, r = 1, 1, 0
    for c in range(cols):
        if m[r][c] == 0:
            piv = next((i for i in range(r + 1, n) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        row_r, pivot = m[r], m[r][c]
        for row_i in m[r + 1:]:
            mic = row_i[c]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == n:
            break
    return r, sign * prev, denominator


def bareiss_rank(rows) -> int:
    """Fraction-free elimination rank; rational rows are scaled to integers first."""
    return _bareiss(rows)[0]


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rows with each rational row scaled to integers, and the product of the scales."""
    m = [list(r) for r in rows]
    denominator = 1
    for i, row in enumerate(m):
        if any(isinstance(x, Fraction) for x in row):
            scale = math.lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
            m[i] = [int(x * scale) for x in row]
            denominator *= scale
    return m, denominator


def gauss_rank(rows) -> int:
    """Naive Fraction elimination; the independent oracle for bareiss_rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] / pivot
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == n:
            break
    return r


def bareiss_determinant(rows) -> "int | Fraction":
    """Exact determinant of square rows, by _bareiss: 0 below full rank, else
    the signed last pivot over the scales (1 for the empty matrix)."""
    rank, pivot, denominator = _bareiss(rows)
    if rank < len(rows):
        return 0
    return pivot if denominator == 1 else Fraction(pivot, denominator)


# --- exact ranks and minors of int64 stacks, by two primes ----------------------

# Every residue product stays below 2^62, and P1 * P2 > 2^61: two residues fix
# an integer of absolute value below 2^60 (Garner's CRT), and a nonzero minor
# below 2^60 is divisible by at most one of the primes.  (Modular rank and
# determinant: von zur Gathen & Gerhard, Modern Computer Algebra.)
P1 = 2_147_483_647
P2 = 2_147_483_629
HADAMARD_LOG2_LIMIT = 60
ENTRY_LIMIT = 2 ** 62
# modular_rank eliminates a stack in blocks of at most this many entries, so
# that its (2, N, r, c) temporaries stay small however large the stack
RANK_BLOCK_ENTRIES = 2 ** 13


class EntryBoundError(ArithmeticError):
    """An int64 stack operation whose entries could reach 2^62."""


def _max_abs(stack) -> int:
    return max(int(stack.max()), -int(stack.min())) if stack.size else 0


def hadamard_log2(stack) -> np.ndarray:
    """log2 of prod_i max(1, |row_i|) for each matrix of an (N, r, c) stack.

    It bounds every minor of every size.  Float rounding shifts it by far less
    than the bit between HADAMARD_LOG2_LIMIT and what the primes cover.
    """
    import numpy as np

    norms = np.sqrt(np.square(stack, dtype=float).sum(-1))
    return np.log2(np.maximum(norms, 1.0)).sum(-1)


def int64_matmul(a, b) -> np.ndarray:
    """a @ b on int64 stacks; EntryBoundError unless max|a| max|b| n < 2^62."""
    if _max_abs(a) * _max_abs(b) * a.shape[-1] >= ENTRY_LIMIT:
        raise EntryBoundError(f"int64 product of {a.shape[-1]}-wide stacks may overflow")
    return a @ b


def _residues(stack) -> tuple[np.ndarray, np.ndarray]:
    """The stack mod P1 and mod P2, stacked on a new first axis, and the primes
    shaped to broadcast against it."""
    import numpy as np

    primes = np.array([P1, P2], dtype=np.int64).reshape(2, *(1,) * stack.ndim)
    return stack % primes, primes


def modular_rank(stack) -> np.ndarray:
    """Exact ranks of an (N, r, c) integer stack.

    Fraction-free elimination mod P1 and mod P2, in blocks of at most
    RANK_BLOCK_ENTRIES entries; the rank is the larger of the two.  A matrix
    whose Hadamard bound reaches 2^60 goes to bareiss_rank.
    """
    import numpy as np

    stack = np.asarray(stack, dtype=np.int64)
    ranks = np.zeros(stack.shape[0], dtype=np.int64)
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return ranks
    block = max(1, RANK_BLOCK_ENTRIES // (stack.shape[1] * stack.shape[2]))
    for start in range(0, len(stack), block):
        part = stack[start:start + block]
        exact = hadamard_log2(part) < HADAMARD_LOG2_LIMIT
        a, primes = _residues(part[exact])
        used = np.zeros(a.shape[:3], dtype=bool)
        rows = np.arange(a.shape[2])
        for col in range(a.shape[3]):
            # the columns left of col are zero in every row not yet used
            rest = a[..., col:]
            free = (rest[..., 0] != 0) & ~used
            pivot = free.argmax(-1)
            pivot_row = np.take_along_axis(rest, pivot[..., None, None], axis=-2)
            used |= (rows == pivot[..., None]) & free.any(-1)[..., None]
            reduced = (rest * pivot_row[..., :1] - rest[..., :1] * pivot_row) % primes
            a[..., col:] = np.where((free & ~used)[..., None], reduced, rest)
        ranks[start:start + block][exact] = used.sum(-1).max(0)
        for k in np.flatnonzero(~exact):
            ranks[start + k] = bareiss_rank(part[k].tolist())
    return ranks


def _inverse_mod(x, primes) -> np.ndarray:
    """x^(p - 2) mod p elementwise: the inverse mod each prime (0 for 0)."""
    import numpy as np

    result = np.ones_like(x)
    base = x % primes
    for bit in range(31):
        odd = ((primes - 2) >> bit) & 1 == 1
        result = np.where(odd, result * base % primes, result)
        base = base * base % primes
    return result


def leading_minor_signs(stack) -> np.ndarray:
    """Signs of the k x k leading minors, k = 1..n, of an (N, n, n) integer stack.

    Gaussian elimination without pivoting mod P1 and mod P2 gives each minor's
    residues; Garner's CRT recovers the minor in (-P1 P2 / 2, P1 P2 / 2).  A
    matrix whose Hadamard bound reaches 2^60, or that meets a pivot divisible
    by either prime, goes to bareiss_determinant.
    """
    import numpy as np

    stack = np.asarray(stack, dtype=np.int64)
    count, n = stack.shape[:2]
    a, primes = _residues(stack)
    p = primes[:, :, 0, 0]
    minors = np.ones((2, count, n), dtype=np.int64)
    running = np.ones((2, count), dtype=np.int64)
    for k in range(n):
        pivot = a[:, :, k, k]
        running = running * pivot % p
        minors[:, :, k] = running
        factor = a[:, :, k + 1 :, k] * _inverse_mod(pivot, p)[..., None] % primes[..., 0]
        a[:, :, k + 1 :, k + 1 :] = (
            a[:, :, k + 1 :, k + 1 :] - factor[..., None] * a[:, :, k : k + 1, k + 1 :]
        ) % primes
    r1, r2 = minors
    value = r1 + P1 * ((r2 - r1) % P2 * pow(P1, -1, P2) % P2)
    signs = np.sign(np.where(value > P1 * P2 // 2, value - P1 * P2, value))
    fallback = (hadamard_log2(stack) >= HADAMARD_LOG2_LIMIT) | (minors == 0).any((0, 2))
    for j in np.flatnonzero(fallback):
        rows = stack[j].tolist()
        signs[j] = [
            (d > 0) - (d < 0)
            for d in (bareiss_determinant([r[:k] for r in rows[:k]]) for k in range(1, n + 1))
        ]
    return signs


BORDERLINE_MARGIN = 10.0


@dataclass(frozen=True)
class RankNormValue:
    """rk(g - id) with the backend that produced it."""

    value: int
    method: str  # "exact-elimination" | "singular-threshold"
    threshold: float | None = None
    smallest_retained: float | None = None
    largest: float | None = None

    def borderline(self) -> bool:
        """Is the smallest retained singular value within BORDERLINE_MARGIN * tau
        of the cut?"""
        if self.threshold is None or self.smallest_retained is None:
            return False
        scale = max(1.0, self.largest or 0.0)
        return self.smallest_retained < BORDERLINE_MARGIN * self.threshold * scale


def _is_permutation_matrix(rows) -> bool:
    """Entries 0 or 1, with exactly one 1 in each row and in each column."""
    return (all(x == 0 or x == 1 for row in rows for x in row)
            and all(sum(line) == 1 for line in (*rows, *zip(*rows))))


def rank_norm_exact(g: RationalMatrix) -> RankNormValue:
    """Exact rank of g - id by fraction-free elimination; g must be invertible.

    A permutation matrix is invertible by construction; any other g is shown
    invertible by one more elimination.
    """
    if not _is_permutation_matrix(g.rows) and bareiss_rank(g.rows) != g.n:
        raise SingularError("rank norm is defined on invertible matrices")
    return RankNormValue(bareiss_rank(g.minus_identity().rows), "exact-elimination")


SPECIAL_TOL = 1e-6


class FloatMatrix:
    """A square float64 matrix; orthogonality is asserted where claimed."""

    __slots__ = ("data",)

    def __init__(self, data):
        import numpy as np

        arr = np.array(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def assert_orthogonal(self, tol: float = 1e-8) -> None:
        import numpy as np

        gap = np.abs(self.data.T @ self.data - np.eye(self.n)).max()
        if gap > tol:
            raise NotOrthogonalError(f"|g^T g - I|_max = {gap:.3e} > {tol:.0e}")

    def assert_special(self) -> None:
        import numpy as np

        det = np.linalg.det(self.data)
        if abs(det - 1.0) > SPECIAL_TOL:
            raise NotSpecialError(f"det = {det:.6f} != +1")


def numeric_rank(array, tau: float = 1e-8) -> RankNormValue:
    """Thresholded singular-value rank of a raw array (not shifted by id)."""
    import numpy as np

    sv = np.linalg.svd(np.asarray(array, dtype=float), compute_uv=False)
    cutoff = tau * max(1.0, float(sv[0]) if sv.size else 1.0)
    kept = sv[sv > cutoff]
    return RankNormValue(
        int(kept.size),
        "singular-threshold",
        threshold=tau,
        smallest_retained=float(kept[-1]) if kept.size else None,
        largest=float(sv[0]) if sv.size else None,
    )


def numeric_rank_stack(stack, tau: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numeric_rank on every matrix of an (N, m, m) float stack, m >= 1, as
    arrays: the ranks, the smallest retained singular values (nan where none
    is retained) and the largest singular values."""
    import numpy as np

    sv = np.linalg.svd(stack, compute_uv=False)
    largest = sv[:, 0]
    # the singular values come in descending order, so the kept ones lead
    ranks = (sv > tau * np.maximum(1.0, largest)[:, None]).sum(axis=1)
    retained = sv[np.arange(len(sv)), np.maximum(ranks - 1, 0)]
    return ranks, np.where(ranks > 0, retained, np.nan), largest


def rank_norm_numeric(g: FloatMatrix, tau: float = 1e-8) -> RankNormValue:
    """Singular values of g - id above tau * max(1, largest singular value)."""
    import numpy as np

    return numeric_rank(g.data - np.eye(g.n), tau)


# --- the three projections -----------------------------------------------------


def triangular_project(g: RationalMatrix) -> RationalMatrix:
    """Top-left block of an invertible upper-triangular matrix.

    A group homomorphism B_n -> B_{n-1} with rk(p(g) g^{-1} - id) <= 1.
    """
    if not g.is_upper_triangular():
        raise NotTriangularError("not upper triangular")
    if any(g.rows[i][i] == 0 for i in range(g.n)):
        raise SingularError("zero diagonal entry")
    return g.leading(g.n - 1)


def spd_project(a: RationalMatrix) -> RationalMatrix:
    """Leading principal submatrix of a symmetric positive definite matrix."""
    if not a.is_symmetric():
        raise NotSymmetricError("not symmetric")
    for k in range(1, a.n + 1):
        if bareiss_determinant(a.leading(k).rows) <= 0:
            raise NotPositiveDefiniteError(f"leading {k}x{k} minor is not positive")
    return a.leading(a.n - 1)


def elementary_rotation(x, n: int | None = None) -> FloatMatrix:
    """The rotation R_x fixing the complement of span{x, e_n} with R_x x = e_n.

    R_{e_n} is the identity; for x = -e_n the choice is the half-turn of the
    (e_{n-1}, e_n) plane, which the general position formula cannot decide.
    """
    import numpy as np

    x = np.array(x, dtype=float).ravel()
    if n is None:
        n = x.size
    if x.size != n:
        raise ValueError("vector length does not match the dimension")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise NotUnitError(f"|x| = {np.linalg.norm(x)!r} is not 1 within 1e-12")
    e = np.zeros(n)
    e[n - 1] = 1.0
    c = float(x @ e)
    residual = x - c * e
    s = float(np.linalg.norm(residual))
    if s < 1e-12:
        if c > 0:
            return FloatMatrix(np.eye(n))
        if n < 2:
            raise ValueError("cannot rotate -e_1 inside SO(1)")
        r = np.eye(n)
        r[n - 2, n - 2] = -1.0
        r[n - 1, n - 1] = -1.0
        return FloatMatrix(r)
    u = residual / s
    r = np.eye(n)
    r += (c - 1.0) * (np.outer(u, u) + np.outer(e, e))
    r += s * (np.outer(e, u) - np.outer(u, e))
    return FloatMatrix(r)


def so_project(g: FloatMatrix, tau: float = 1e-8) -> FloatMatrix:
    """R_{g(e_n)} g with the last row and column stripped; lands in SO(n-1)."""
    import numpy as np

    g.assert_orthogonal(max(tau, 1e-8))
    g.assert_special()
    image = g.data[:, g.n - 1]
    rot = elementary_rotation(image / np.linalg.norm(image), g.n)
    fixed = rot.data @ g.data
    if abs(fixed[g.n - 1, g.n - 1] - 1.0) > 1e-8:
        raise NotOrthogonalError("projection failed to fix e_n")
    return FloatMatrix(fixed[: g.n - 1, : g.n - 1])


def so_project_stack(g, tau: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """so_project on every matrix of an (N, n, n) float stack, n >= 2: the
    (N, n-1, n-1) projections, and a mask of the matrices that so_project
    refuses (not orthogonal, not special, not fixing e_n, image not a unit
    vector) or that take elementary_rotation's half-turn case.

    Every entry of an unmasked projection has so_project's bits: the same
    operations run in the same order, and each array's vector norms are the
    square roots of one stacked dot product.  On contiguous rows that gave
    np.linalg.norm's bits in all 840 000 rows tried (n = 2..15, numpy 2.4.6);
    on strided ones, such as the column g[:, :, n - 1] uncopied, it did not,
    hence the copy.  The seeded so_project oracle remains the check.
    """
    import numpy as np

    def norms(rows):
        r = np.ascontiguousarray(rows)
        return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])

    n = g.shape[1]
    eye = np.eye(n)
    e = eye[n - 1]
    gap = np.abs(g.transpose(0, 2, 1) @ g - eye).max(axis=(1, 2))
    image = g[:, :, n - 1]
    x = image / norms(image)[:, None]
    c = x[:, n - 1]  # x @ e_n
    residual = x - c[:, None] * e
    s = norms(residual)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = residual / s[:, None]
    rot = eye + (c - 1.0)[:, None, None] * (u[:, :, None] * u[:, None, :] + np.outer(e, e))
    rot += s[:, None, None] * (e[:, None] * u[:, None, :] - u[:, :, None] * e)
    fixed = rot @ g
    refused = ((gap > max(tau, 1e-8)) | (np.abs(np.linalg.det(g) - 1.0) > SPECIAL_TOL)
               | (np.abs(norms(x) - 1.0) > 1e-12)
               | (s < 1e-12) | (np.abs(fixed[:, n - 1, n - 1] - 1.0) > 1e-8))
    return fixed[:, : n - 1, : n - 1], refused


def embed(mat: FloatMatrix | RationalMatrix, n: int):
    """Direct sum with an identity block, up to dimension n."""
    import numpy as np

    if isinstance(mat, RationalMatrix):
        rows = [
            tuple(row) + tuple(0 for _ in range(n - mat.n)) for row in mat.rows
        ]
        for i in range(mat.n, n):
            rows.append(tuple(1 if j == i else 0 for j in range(n)))
        return RationalMatrix(rows)
    out = np.eye(n)
    out[: mat.n, : mat.n] = mat.data
    return FloatMatrix(out)


def permutation_matrix(sigma: Permutation, n: int) -> RationalMatrix:
    """P[i][j] = 1 when sigma(i+1) = j+1; rk(P - id) equals the transposition norm."""
    return RationalMatrix(
        tuple(
            tuple(1 if sigma(i + 1) == j + 1 else 0 for j in range(n))
            for i in range(n)
        )
    )


# --- random instances (seeded by the caller) -------------------------------------

# the random integer matrices draw each free entry from -SPREAD..SPREAD, in the
# scalar draws and the stacked ones alike
SPREAD = 2


def random_unit_triangular(rng: np.random.Generator, n: int) -> RationalMatrix:
    """Upper triangular, integer entries, diagonal +-1: inverses stay integral."""
    rows = []
    for i in range(n):
        row = [0] * i + [int(rng.choice((-1, 1)))]
        row += [int(rng.integers(-SPREAD, SPREAD + 1)) for _ in range(n - i - 1)]
        rows.append(tuple(row))
    return RationalMatrix(rows)


def _triangular_stack(rng, n: int, count: int, diagonal, scale: int) -> np.ndarray:
    """count upper triangular (n, n) int64 draws, from one rng.integers call:
    row by row, diagonal[k] for k in range(len(diagonal)), then scale times
    one draw from -SPREAD..SPREAD per entry right of it."""
    import numpy as np

    i, j = np.triu_indices(n)
    on = i == j
    flat = rng.integers(np.where(on, 0, -SPREAD), np.where(on, len(diagonal), SPREAD + 1),
                        size=(count, i.size))
    stack = np.zeros((count, n, n), dtype=np.int64)
    stack[:, i, j] = np.where(on, np.asarray(diagonal)[np.where(on, flat, 0)], scale * flat)
    return stack


def random_unit_triangular_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count successive random_unit_triangular draws as an (count, n, n) int64
    stack, from one rng.integers call over the same stream."""
    # rng.choice((-1, 1)) draws its index as integers(0, 2)
    return _triangular_stack(rng, n, count, (-1, 1), 1)


def random_rational_triangular(rng: np.random.Generator, n: int) -> RationalMatrix:
    """Upper triangular with fractional diagonal entries; exercises Fractions."""
    choices = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
    rows = []
    for i in range(n):
        row = [Fraction(0)] * i + [choices[int(rng.integers(0, len(choices)))]]
        row += [Fraction(int(rng.integers(-SPREAD, SPREAD + 1))) for _ in range(n - i - 1)]
        rows.append(tuple(row))
    return RationalMatrix(rows)


def random_rational_triangular_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count successive random_rational_triangular draws, each doubled to clear
    its denominators, as a (count, n, n) int64 stack, from one rng.integers
    call over the same stream."""
    return _triangular_stack(rng, n, count, (2, -2, 4, 1, -3), 2)  # its choices, doubled


def random_spd(rng: np.random.Generator, n: int) -> RationalMatrix:
    m = RationalMatrix(
        tuple(
            tuple(int(rng.integers(-SPREAD, SPREAD + 1)) for _ in range(n))
            for _ in range(n)
        )
    )
    return (m.transpose() @ m) - RationalMatrix(
        tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    )


def random_spd_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count successive random_spd draws as an (count, n, n) int64 stack, from
    one rng.integers call over the same stream."""
    import numpy as np

    m = rng.integers(-SPREAD, SPREAD + 1, size=(count, n, n))
    return int64_matmul(m.transpose(0, 2, 1), m) + np.eye(n, dtype=np.int64)


def random_so(rng: np.random.Generator, n: int) -> FloatMatrix:
    """QR of a Gaussian matrix, sign-fixed, determinant +1."""
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return FloatMatrix(q)


def random_so_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count successive random_so draws as a (count, n, n) float stack, from
    one rng.normal call over the same stream."""
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, -1] = -q[flip, :, -1]
    return q
