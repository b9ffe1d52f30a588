"""Cutting maps, cycle splitting and displaced sets for permutations.

``cut`` erases the k largest support points by first-return routing and
satisfies three Lipschitz bounds (step bound 2|k-m|, non-expansive on equal
supports, factor 2 in general) plus the norm decrease that feeds the
contraction machinery.  ``split`` factors a permutation at its k-th support
point, and ``displaced_set`` picks a third of the support disjoint from its
image.

Each has a batched form on (N, d) arrays of 0-based image arrays, which the
cutting suite runs: ``cut_stack`` (every k up to kmax, one step per k),
``split_stack`` (every k) and ``displaced_stack``, the last two read off
``perms._cycle_walk``, one walk of each cycle from its least point.  The
``Permutation`` functions stay their references and run inside each check on
a seeded sample.
``cut_bounds`` is the one audit of the four bounds over index pairs into an
array of cut images; ``verify_cut_lemmas`` runs it on permutation pairs cut
by ``cut``, and the suite's exhaustive and random checks on ``cut_stack``,
the exhaustive one reading its distances off ``hamming_table``.  The step
bound is certified from adjacent steps; every pair k < m is audited only
when a step breaks the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .perms import IDENTITY, Permutation, _cycle_walk, supp_norm


class OutOfRangeError(ValueError):
    """split() position outside 1..supp_norm."""


class IdentityInputError(ValueError):
    """displaced_set() needs a non-identity permutation."""


@dataclass(frozen=True)
class CutResult:
    """Image of a cutting map."""

    image: Permutation


@dataclass(frozen=True)
class SplitPair:
    """Factors of a splitting; left is applied first."""

    left: Permutation
    right: Permutation

    def recomposed(self) -> Permutation:
        return self.left.then(self.right)


def cut(sigma: Permutation, k: int) -> CutResult:
    """Erase the k largest support points of sigma.

    Points at most the new threshold keep their image when it stays below
    the threshold and otherwise jump to the first return of their orbit;
    everything above the threshold is fixed.  ``cut(sigma, 0)`` is sigma,
    and k at least the support size gives the identity.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    supp = sigma.support()
    if k == 0:
        return CutResult(sigma)
    if k >= len(supp):
        return CutResult(IDENTITY)
    threshold = supp[len(supp) - k - 1]
    mapping: dict[int, int] = {}
    for i in supp[: len(supp) - k]:
        j = sigma(i)
        while j > threshold:
            j = sigma(j)
        if j != i:
            mapping[i] = j
    return CutResult(Permutation(mapping))


def cut_stack(images: np.ndarray, kmax: int) -> np.ndarray:
    """``cut(., k)`` for k = 0..kmax on every row of an (N, d) array of 0-based
    image arrays, as an (N, kmax+1, d) array of the input's dtype.

    c_k is the first-return map of c_(k-1) off p_k, the k-th largest moved
    point of the original row (not of c_(k-1): routing can fix points early,
    as erasing 5 fixes 1 in (1 5)).  So each k takes one step: the entry equal
    to p_k becomes c_(k-1)(p_k), and p_k becomes fixed.  A row with fewer than
    k moved points stays as it is.
    """
    import numpy as np

    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    images = np.asarray(images)
    n, d = images.shape
    moved = images != np.arange(d)
    # rank[i, j]: moved points of row i at or after j, so p_k has rank k
    rank = np.cumsum(moved[:, ::-1], axis=1)[:, ::-1]
    row, col = np.nonzero(moved & (rank <= kmax))
    erased = np.full((n, kmax + 1), -1, dtype=np.intp)
    erased[row, rank[row, col]] = col
    rows = np.arange(n)
    out = np.empty((n, kmax + 1, d), dtype=images.dtype)
    out[:, 0] = cuts = images
    for k in range(1, kmax + 1):
        p = erased[:, k]
        has = p >= 0
        if has.any():
            jump = cuts[rows, np.where(has, p, 0)]
            cuts = np.where(cuts == p[:, None], jump[:, None], cuts)
            cuts[rows[has], p[has]] = p[has]
        out[:, k] = cuts
    return out


def split(sigma: Permutation, k: int) -> SplitPair:
    """Factor sigma = left * right with supp(left) <= k, supp(right) <= n-k+1.

    The k-th support point is taken in canonical cycle order.  A cycle
    (a_1 .. a_j) met at position m splits as (a_1 .. a_m) * (a_1 a_{m+1} .. a_j);
    at a cycle boundary the factors are whole-cycle products.
    """
    n = supp_norm(sigma)
    if not 1 <= k <= n:
        raise OutOfRangeError(f"k={k} outside 1..{n}")
    cycles = sigma.cycles()
    count = 0
    for idx, cyc in enumerate(cycles):
        if count + len(cyc) >= k:
            pos = k - count  # 1-based position within this cycle
            break
        count += len(cyc)
    if pos == len(cyc):
        left = Permutation.from_cycles(cycles[: idx + 1])
        right = Permutation.from_cycles(cycles[idx + 1:])
    else:
        left = Permutation.from_cycles(list(cycles[:idx]) + [cyc[:pos]])
        right = Permutation.from_cycles([(cyc[0],) + cyc[pos:]] + list(cycles[idx + 1:]))
    return SplitPair(left, right)


def displaced_set(sigma: Permutation) -> frozenset[int]:
    """A set D with sigma(D) disjoint from D and |D| >= supp_norm(sigma)/3.

    Per cycle: the odd positions for even length, the odd positions strictly
    below the length for odd length (so a 3-cycle contributes one point).
    """
    if sigma.is_identity():
        raise IdentityInputError("the identity displaces nothing")
    moved: set[int] = set()
    for cyc in sigma.cycles():
        k = len(cyc)
        stop = k if k % 2 == 0 else k - 1
        moved.update(cyc[0:stop:2])
    return frozenset(moved)


def split_stack(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``split(., k)`` for k = 1..d on every row of an (N, d) image array.

    Returns (left, right), each (N, d, d): [i, k-1] holds the factors of row
    i at k as 0-based image arrays, for 1 <= k <= supp; a larger k repeats
    k = supp.  In canonical cycle order the k-th moved point sits at
    position m of its cycle (a_1 .. a_j), with m clipped to 1..j for the
    cycles wholly after or before it; that cycle splits as (a_1 .. a_m) *
    (a_1 a_(m+1) .. a_j), which at m = j is the cycle boundary.
    """
    import numpy as np

    n, d = images.shape
    low, pos, length = _cycle_walk(images)
    point = np.arange(d, dtype=images.dtype)
    moved = images != point
    # moved points in cycles with a smaller minimum: the points before x's cycle
    before = ((low[:, None, :] < low[:, :, None]) & moved[:, None, :]).sum(axis=2,
                                                                          dtype=np.int16)
    ks = np.arange(1, d + 1, dtype=np.int16)[:, None]
    m = np.clip(ks - before[:, None, :], 1, length[:, None, :])
    # the point at each (cycle minimum, position) of a row, read for a_(m+1):
    # the right factor's image of a_1, which is a_1 itself at m = j
    at = np.zeros((n, d, d), dtype=images.dtype)
    at[np.arange(n)[:, None], low, pos] = point
    after = at[np.arange(n)[:, None, None], low[:, None, :], m % length[:, None, :]]
    sigma, p = images[:, None, :], pos[:, None, :]
    left = np.where(p < m - 1, sigma, np.where(p == m - 1, low[:, None, :], point))
    right = np.where(p == 0, after, np.where(p < m, point, sigma))
    return left, right


def displaced_stack(images: np.ndarray) -> np.ndarray:
    """``displaced_set`` on every row of an (N, d) image array, as an (N, d)
    mask of 0-based points: per cycle, the even positions from its minimum
    below its length rounded down to even (empty for the identity)."""
    _, pos, length = _cycle_walk(images)
    return (pos % 2 == 0) & (pos < length - length % 2)


# name -> (lemma, bound) of each cutting bound, in report order
CUT_BOUNDS = {
    "step": ("cut-step", "d(c_k s, c_m s) <= 2|k-m|"),
    "equal-support": ("cut-equal-support", "d(c_k s, c_k t) <= d(s, t)"),
    "general": ("cut-general", "d(c_k s, c_k t) <= 2 d(s, t)"),
    "norm-decrease": ("cut-norm", "supp(c_k s) <= max(supp(s) - k, 0)"),
}


@dataclass(frozen=True)
class BoundAudit:
    """One cutting bound over a sample: its size, how many samples broke the
    bound, the worst observed/allowed ratio, and the first violation."""

    sample_size: int
    violations: int
    max_ratio: float
    # (pair, k), or (pair, k, m) for the step bound: the first violation in
    # pair order, then k (and m) ascending; None when the bound held
    first: tuple[int, ...] | None


def _audit(observed, allowed, first_pair, labels, weight=1) -> BoundAudit:
    """One bound over rows of samples: row r holds the samples of one element
    or pair, counted weight[r] times, and first_pair[r] is the first pair it
    stands for; labels[c] is the k (or k, m) of column c."""
    import numpy as np

    weight = np.broadcast_to(weight, first_pair.shape)
    sample_size = int(weight.sum()) * observed.shape[1]
    bad = observed > allowed
    first = None
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=1))
        row = rows[np.argmin(first_pair[rows])]
        first = (int(first_pair[row]), *(int(x) for x in labels[np.argmax(bad[row])]))
    if np.shape(allowed)[-1:] in ((), (1,)):
        # one allowed value per row, and observed / allowed grows with
        # observed: only the row's largest value can give the maximum ratio,
        # and no (rows, columns) float array is made
        observed = observed.max(axis=1, keepdims=True, initial=0)
    # where nothing is allowed the ratio is inf, or nan (ignored: 0) for 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = observed / allowed
    return BoundAudit(
        sample_size=sample_size,
        violations=int(weight @ bad.sum(axis=1)),
        max_ratio=float(np.nanmax(ratio, initial=0.0)),
        first=first,
    )


# hamming_table fills this many entries per block of rows
HAMMING_BLOCK_ENTRIES = 1 << 16


def hamming_table(images) -> np.ndarray:
    """The (N, N) uint8 table of Hamming distances between the rows of an
    (N, d) image array, d < 256, filled one block of rows and one point at a
    time, so that no (N, N) or (N, N, d) temporary is made."""
    import numpy as np

    n = len(images)
    table = np.zeros((n, n), dtype=np.uint8)
    rows = max(1, HAMMING_BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = table[start:start + rows]
        for x in range(images.shape[1]):
            block += images[start:start + rows, x, None] != images[:, x]
    return table


def _pairwise_step_audit(own, dist, first_seen, counts) -> BoundAudit:
    """The step bound of cut_bounds over every pair k < m of each element's
    cuts, own[e, k], at distances dist."""
    import numpy as np

    k, m = np.triu_indices(own.shape[1], 1)
    return _audit(dist(own[:, k], own[:, m]), 2 * (m - k), first_seen,
                  np.stack([k, m], axis=1), counts)


def cut_bounds(cuts, left, right, table=None) -> dict[str, BoundAudit]:
    """The four cutting bounds on the pairs (s, t) = (left[p], right[p]).

    ``cuts`` is an (N, K+1, d) array whose row i holds c_0 s .. c_K s of
    element i as 0-based image arrays, c_0 s being s itself; d(x, y) is the
    number of points where x and y differ.  left and right may be any index
    arrays that broadcast together, such as a column of elements against a
    row of all of them; pair p is then the p-th of the broadcast in C order.
    With ``table`` = (ranks, hamming), the (N, K+1) ranks of the cuts in S_d
    and hamming_table of S_d in rank order, every distance is read from the
    table instead.  The step and norm-decrease bounds belong to s alone: they
    are evaluated once per element and counted once per pair it starts.  Keys
    and order follow CUT_BOUNDS.

    The step bound is certified by adjacent steps: d(c_k s, c_m s) is at most
    the sum of the m - k steps between them (triangle inequality), so steps of
    at most 2 meet every bound 2(m - k), and the largest ratio is a step's.
    When some step exceeds 2, every pair k < m is audited, for the exact
    count and the first violation.
    """
    import numpy as np

    if table is None:
        rows, identity = cuts, np.arange(cuts.shape[2])

        def dist(a, b):
            return (a != b).sum(axis=-1)
    else:
        (rows, hamming), identity = table, 0  # rank 0 is the identity

        def dist(a, b):
            return hamming[a, b]
    ks = np.arange(cuts.shape[1])
    elements, first_seen, counts = np.unique(np.broadcast_arrays(left, right)[0],
                                             return_index=True, return_counts=True)
    own = rows[elements]
    support = dist(own, identity)
    steps = dist(own[:, :-1], own[:, 1:])
    if (steps > 2).any():
        step = _pairwise_step_audit(own, dist, first_seen, counts)
    else:
        step = replace(_audit(steps, 2, first_seen, None, counts),
                       sample_size=int(counts.sum()) * len(ks) * (len(ks) - 1) // 2)
    # one (pairs,) column per k, laid out so that each column is contiguous
    pair = np.stack([dist(rows[left, k], rows[right, k]).ravel() for k in ks]).T
    pairs = np.arange(len(pair))
    moved = np.packbits(cuts[:, 0] != np.arange(cuts.shape[2]), axis=1)
    same = (moved[left] == moved[right]).all(axis=-1).ravel()
    return {
        "step": step,
        "equal-support": _audit(pair[same, 1:], pair[same, :1], pairs[same], ks[1:, None]),
        "general": _audit(pair[:, 1:], 2 * pair[:, :1], pairs, ks[1:, None]),
        "norm-decrease": _audit(support, np.maximum(support[:, :1] - ks, 0), first_seen,
                                ks[:, None], counts),
    }


def witness_text(name: str, first: tuple[int, ...], sigma: Permutation, tau: Permutation) -> str:
    """The first violation of bound ``name``, at the pair (sigma, tau)."""
    _, k, *m = first
    pair = f"sigma={sigma}" if name in ("step", "norm-decrease") else f"sigma={sigma} tau={tau}"
    return f"{pair} k={k}" + "".join(f" m={x}" for x in m)


def verify_cut_lemmas(pairs, max_k: int = 8) -> dict:
    """Audit the cutting-map bounds over permutation pairs.

    Checks, for k, m up to ``max_k``: d(c_k s, c_m s) <= 2|k-m|;
    d(c_k s, c_k t) <= d(s, t) when supports coincide and <= 2 d(s, t)
    always; supp(c_k s) <= max(supp(s) - k, 0).  Each distinct permutation
    is cut by ``cut``; ``cut_bounds`` evaluates the bounds.
    """
    import numpy as np

    index: dict[Permutation, int] = {}
    left, right = [], []
    for sigma, tau in pairs:
        left.append(index.setdefault(sigma, len(index)))
        right.append(index.setdefault(tau, len(index)))
    perms = list(index)
    cuts = [[cut(p, k).image for k in range(max_k + 1)] for p in perms]
    # distances and supports do not change when the moved points are relabelled 0..d-1
    points = sorted({x for row in cuts for c in row for x in c.support()})
    label = {x: i for i, x in enumerate(points)}
    images = np.array([[[label[c(x)] for x in points] for c in row] for row in cuts],
                      dtype=np.min_scalar_type(len(points))).reshape(len(perms), max_k + 1,
                                                                     len(points))
    left, right = np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)
    report = {}
    for name, audit in cut_bounds(images, left, right).items():
        lemma, bound = CUT_BOUNDS[name]
        report[name] = {
            "lemma": lemma,
            "bound": bound,
            "sample_size": audit.sample_size,
            "max_ratio": audit.max_ratio,
            "violations": audit.violations,
            "witness": audit.first and witness_text(
                name, audit.first, perms[left[audit.first[0]]], perms[right[audit.first[0]]]),
        }
    return report
