"""Cutting maps, cycle splitting and displaced sets for permutations.

``cut`` erases the k largest support points by first-return routing and
satisfies three Lipschitz bounds (step bound 2|k-m|, non-expansive on equal
supports, factor 2 in general) plus the norm decrease that feeds the
contraction machinery.  ``cut_images`` is the same map on a batch of
0-based image arrays; ``cut`` stays its reference.  ``verify_cut_lemmas``
audits all four bounds on a sample.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .perms import IDENTITY, Permutation, supp_norm


class OutOfRangeError(ValueError):
    """split() position outside 1..supp_norm."""


class IdentityInputError(ValueError):
    """displaced_set() needs a non-identity permutation."""


@dataclass(frozen=True)
class CutResult:
    """Image of a cutting map plus the erased support points (descending)."""

    image: Permutation
    erased_points: tuple[int, ...]


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
        return CutResult(sigma, ())
    if k >= len(supp):
        return CutResult(IDENTITY, tuple(reversed(supp)))
    erased = tuple(reversed(supp[len(supp) - k:]))
    threshold = supp[len(supp) - k - 1]
    mapping: dict[int, int] = {}
    for i in supp[: len(supp) - k]:
        j = sigma(i)
        while j > threshold:
            j = sigma(j)
        if j != i:
            mapping[i] = j
    return CutResult(Permutation(mapping), erased)


def cut_images(images: np.ndarray, k: int) -> np.ndarray:
    """``cut(., k)`` on every row of an (N, d) array of 0-based image arrays.

    A point is above the threshold when at most k moved points sit at or
    after it; those points are fixed, and every other point follows its
    orbit through them (at most k steps) to the first return.  The result
    has the input's dtype.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    images = np.asarray(images)
    base = np.arange(images.shape[1], dtype=images.dtype)
    moved = images != base
    above = np.cumsum(moved[:, ::-1], axis=1)[:, ::-1] <= k
    rows = np.arange(images.shape[0])[:, None]
    routed = images
    for _ in range(min(k, images.shape[1])):
        routed = np.where(above[rows, routed], images[rows, routed], routed)
    return np.where(above, base, routed)


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


@dataclass
class LemmaAudit:
    """Worst observed ratio for one bound, with a witness when violated."""

    lemma: str
    bound: str
    sample_size: int = 0
    max_ratio: float = 0.0
    violations: int = 0
    witness: str | None = None

    def record(self, observed: float, allowed: float, witness: Callable[[], str]) -> None:
        """Count one sample; ``witness()`` is formatted only for a violation."""
        self.sample_size += 1
        ratio = observed / allowed if allowed else (0.0 if observed == 0 else float("inf"))
        if ratio > self.max_ratio:
            self.max_ratio = ratio
        if observed > allowed:
            self.violations += 1
            if self.witness is None:
                self.witness = witness()

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "bound": self.bound,
            "sample_size": self.sample_size,
            "max_ratio": self.max_ratio,
            "violations": self.violations,
            "witness": self.witness,
        }


def verify_cut_lemmas(pairs, max_k: int = 8) -> dict:
    """Audit the cutting-map bounds over permutation pairs.

    Checks, for k, m up to ``max_k``: d(c_k s, c_m s) <= 2|k-m|;
    d(c_k s, c_k t) <= d(s, t) when supports coincide and <= 2 d(s, t)
    always; supp(c_k s) <= max(supp(s) - k, 0).
    """
    audits = {
        "step": LemmaAudit("cut-step", "d(c_k s, c_m s) <= 2|k-m|"),
        "equal-support": LemmaAudit("cut-equal-support", "d(c_k s, c_k t) <= d(s, t)"),
        "general": LemmaAudit("cut-general", "d(c_k s, c_k t) <= 2 d(s, t)"),
        "norm-decrease": LemmaAudit("cut-norm", "supp(c_k s) <= max(supp(s) - k, 0)"),
    }
    profiles: dict[Permutation, tuple] = {}

    def profile(p: Permutation) -> tuple:
        # everything that depends on p alone: its cuts, their inverses, its
        # inverse, and its (observed, allowed) norm-decrease and step samples
        if p not in profiles:
            cs = [cut(p, k).image for k in range(max_k + 1)]
            inv = [c.inverse() for c in cs]
            n_p = supp_norm(p)
            norms = [(supp_norm(cs[k]), max(n_p - k, 0)) for k in range(max_k + 1)]
            steps = [
                [(supp_norm(cs[k].then(inv[m])), 2 * (m - k)) for m in range(k + 1, max_k + 1)]
                for k in range(max_k + 1)
            ]
            profiles[p] = (cs, inv, p.inverse(), norms, steps)
        return profiles[p]

    for sigma, tau in pairs:
        cs, _, _, norms, steps = profile(sigma)
        _, ct_inv, tau_inv, _, _ = profile(tau)
        for k in range(max_k + 1):
            audits["norm-decrease"].record(*norms[k], lambda: f"sigma={sigma} k={k}")
            for m, (d, allowed) in enumerate(steps[k], start=k + 1):
                audits["step"].record(d, allowed, lambda: f"sigma={sigma} k={k} m={m}")
        d0 = supp_norm(sigma.then(tau_inv))
        equal_support = sigma.support() == tau.support()
        for k in range(1, max_k + 1):
            dk = supp_norm(cs[k].then(ct_inv[k]))
            audits["general"].record(dk, 2 * d0, lambda: f"sigma={sigma} tau={tau} k={k}")
            if equal_support:
                audits["equal-support"].record(dk, d0, lambda: f"sigma={sigma} tau={tau} k={k}")
    return {name: audit.as_dict() for name, audit in audits.items()}
