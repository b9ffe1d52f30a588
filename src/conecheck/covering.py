"""Conjugacy-class covering, commutator witnesses and conjugate-product
certificates on alternating groups.

The covering theorem used throughout: an even permutation with an orbit of
length two and n - 2r >= -1 (r = orbit count on {1..n}) has C_sigma^4 = A_n.
Everything here is certified by explicit recomposition, never by trust.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from math import isqrt

from .perms import (
    IDENTITY,
    OddPermutationError,
    Permutation,
    _compose_images,
    _cycle_norms,
    _even_tuples,
    _images_of_type,
    _invert_images,
    _layouts,
    _rank_images,
    _symmetric_arrays,
    _tuple_cycle_type,
    _tuple_cycles,
    _tuple_even,
    supp_norm,
)
from .wordnorm import bfs

# Class materialization and class products are exact; they refuse to sample,
# so ambient degrees stay small.  |A_8| = 20160.
MAX_COVERING_DEGREE = 8


class SupportExceedsDegreeError(ValueError):
    pass


class HypothesisUnmetError(ValueError):
    """A covering-theorem precondition fails; reported, never skipped silently."""


class SearchExhaustedError(RuntimeError):
    pass


class IdentityBaseError(ValueError):
    pass


class BlockSearchFailedError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# --- conjugacy classes --------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClass:
    """A materialized conjugacy class inside S_n (= the A_n class whenever
    the representative has an orbit of length two)."""

    members: frozenset

    def size(self) -> int:
        return len(self.members)

    def closed_under_conjugation(self, oracle_elements) -> bool:
        for t in oracle_elements:
            t_inv = _invert_images(t)
            for m in self.members:
                if _compose_images(_compose_images(t, m), t_inv) not in self.members:
                    return False
        return True


def _type_code(cycle_type: tuple[int, ...], n: int) -> int:
    """The type code (perms._cycle_type_codes) of a cycle type of S_n, read at
    the rank of its canonical element."""
    codes = _symmetric_arrays(n)[2]
    return codes[_rank_images([_images_of_type(cycle_type, n)])[0]]


def _class_rows(cycle_type: tuple[int, ...], n: int):
    """The S_n class of a cycle type, cut from _symmetric_arrays(n): the rows
    whose type code is the type's, in rank order, which is sorted tuple
    order."""
    images, _, codes = _symmetric_arrays(n)
    return images[codes == _type_code(cycle_type, n)]


def conjugacy_class(sigma: Permutation, n: int) -> ConjugacyClass:
    """All S_n-conjugates of sigma, found by closure under adjacent swaps."""
    if sigma.support() and sigma.support()[-1] > n:
        raise SupportExceedsDegreeError(f"support of {sigma} exceeds degree {n}")
    swaps = [Permutation.transposition(i, i + 1).to_images(n) for i in range(1, n)]
    members = bfs([sigma.to_images(n)],
                  lambda m: [_compose_images(_compose_images(s, m), s) for s in swaps])
    return ConjugacyClass(frozenset(members))


def orbit_count(sigma: Permutation, n: int) -> int:
    """Orbits of <sigma> on {1..n}; fixed points are singleton orbits."""
    if n < 1:
        raise ValueError("degree must be positive")
    if sigma.support() and sigma.support()[-1] > n:
        raise SupportExceedsDegreeError(f"support of {sigma} exceeds degree {n}")
    return len(sigma.cycles()) + n - supp_norm(sigma)


@dataclass(frozen=True)
class CoveringReport:
    class_size: int
    covered: bool
    exponent: int | None


def brenner_hypotheses(sigma: Permutation, n: int) -> str | None:
    """None when the covering hypotheses hold, else the failing one."""
    if n < 5:
        # A_4's (2, 2) class meets the rest, but its powers stay inside V_4
        return f"degree {n} below 5"
    if sigma.support() and sigma.support()[-1] > n:
        return f"support exceeds degree {n}"
    if not sigma.is_even():
        return "sigma is odd"
    if 2 not in sigma.cycle_type():
        return "sigma has no orbit of length two"
    r = orbit_count(sigma, n)
    if n - 2 * r < -1:
        return f"n - 2r = {n - 2 * r} < -1"
    return None


def brenner_check(sigma: Permutation, n: int, members=None) -> CoveringReport:
    """The least e <= 4 with C_sigma^e = A_n, by class products on cycle types.

    C_sigma is cut from the S_n image array (_class_rows) unless its members
    are given.  Requires the covering hypotheses; raises HypothesisUnmetError
    otherwise, and refuses degrees above MAX_COVERING_DEGREE rather than
    sampling.
    """
    return _brenner_report(sigma, n, _type_covering_exponent, members)


def _rank_mask_brenner_check(sigma: Permutation, n: int, members=None) -> CoveringReport:
    """brenner_check on rank masks over S_n: the oracle kernel."""
    return _brenner_report(sigma, n, _covering_exponent, members)


def _tuple_brenner_check(sigma: Permutation, n: int, members=None) -> CoveringReport:
    """brenner_check on Python sets of image tuples: the reference kernel."""
    return _brenner_report(sigma, n, _tuple_covering_exponent, members)


def _brenner_report(sigma: Permutation, n: int, kernel, members) -> CoveringReport:
    failure = brenner_hypotheses(sigma, n)
    if failure is not None:
        raise HypothesisUnmetError(failure)
    if n > MAX_COVERING_DEGREE:
        raise HypothesisUnmetError(
            f"degree {n} above exhaustive bound {MAX_COVERING_DEGREE}"
        )
    if members is None:
        # a cut of the cached S_n array: no class is built per kernel
        members = _class_rows(sigma.cycle_type(), n)
    exponent = kernel(members, n)
    covered = exponent is not None  # C^e = A_n implies C^4 = A_n
    return CoveringReport(len(members), covered, exponent)


def _even_cycle_types(n: int) -> list[tuple[int, ...]]:
    """Cycle types (parts >= 2, sum <= n) of even permutations, the identity's
    () excluded."""
    types = []

    def build(remaining, smallest, acc):
        if acc:
            types.append(tuple(sorted(acc, reverse=True)))
        for part in range(smallest, remaining + 1):
            build(remaining - part, part, acc + [part])

    build(n, 2, [])
    return sorted({
        t for t in types
        if sum(length - 1 for length in t) % 2 == 0
    })


def _type_covering_exponent(members: Sequence[tuple[int, ...]], n: int) -> int | None:
    """The least e <= 4 with C^e = A_n for an S_n class C of even elements,
    else None.

    Every C^e is a union of S_n classes, so it is decided on cycle types: h
    lies in C^e exactly when h then c^-1 lies in C^(e-1) for some c in C.  The
    types of rep then c^-1 over all of C, for one representative rep of each
    even type, are computed once; each step keeps the types that hit the last.
    Conjugating each pair (r, c) by what carries c to c_0 = members[0] shows
    that they are also the types of r then c_0^-1 over the class R of rep, so
    each is taken over the smaller of R and C.  A product's type is the type
    code at its rank in _symmetric_arrays(n).
    """
    import numpy as np

    images, _, codes = _symmetric_arrays(n)
    members = np.asarray(members, dtype=np.uint8)
    inverses = np.argsort(members, axis=1).astype(np.uint8)
    reps = np.array([_images_of_type(t, n) for t in [(), *_even_cycle_types(n)]],
                    dtype=np.uint8)
    # Python sets: a plain np.unique imports numpy.ma, about 0.5 MB resident
    rep_codes = codes[_rank_images(reps)].tolist()
    hits = []
    for rep, code in zip(reps, rep_codes):
        in_class = codes == code
        # row k is the k-th of R then the inverse of members[0], or else rep
        # then the inverse of members[k]
        products = (inverses[0][images[in_class]] if in_class.sum() < len(members)
                    else inverses[:, rep])
        hits.append(set(codes[_rank_images(products)].tolist()))
    power = set(codes[_rank_images(members[:1])].tolist())
    for e in range(1, 5):
        if e > 1:
            power = {code for code, hit in zip(rep_codes, hits) if hit & power}
        if len(power) == len(rep_codes):
            return e
    return None


# Products ranked per block by _covering_exponent: 2^14 rows keep each
# block's temporaries near a megabyte at n = 8 (2^16 rows peaked at 4 MB,
# and were no faster).
_PRODUCT_BLOCK = 1 << 14


@cache
def _alternating_mask(n: int):
    """Read-only boolean mask over the lexicographic ranks of S_n, true on A_n."""
    import numpy as np

    mask = _cycle_norms(_symmetric_arrays(n)[1])[1] % 2 == 0
    mask.flags.writeable = False
    return mask


def _covering_exponent(members: Sequence[tuple[int, ...]], n: int) -> int | None:
    """The least e <= 4 with C^e = A_n for the even class C, else None.

    Each C^e is a mask over the ranks of S_n.  C^e is C^(e-1) times C, one
    gather per block of class members, and a step stops as soon as its mask
    equals the A_n mask.  That is exact: the mask only grows, and products
    of even elements are even, so the finished step would equal A_n too.
    The members run in a fixed strided order, every k-th from each start for
    k = isqrt(|C|): sorted members share their leading images, so a block of
    them repeats cosets, and the A_8 (4, 2) class took 91 blocks sorted
    against 17 strided.  The rows of C^(e-1) are gathered from the S_n array.
    """
    import numpy as np

    images = _symmetric_arrays(n)[0]
    target = _alternating_mask(n)
    cls = np.asarray(members, dtype=np.uint8)
    mask = np.zeros_like(target)
    mask[_rank_images(cls)] = True
    if np.array_equal(mask, target):
        return 1
    stride = max(1, isqrt(len(cls)))
    cls = cls[np.argsort(np.arange(len(cls)) % stride, kind="stable")]
    for e in range(2, 5):
        power = images[np.flatnonzero(mask)]
        mask = np.zeros_like(target)
        step = max(1, _PRODUCT_BLOCK // len(power))
        for start in range(0, len(cls), step):
            # row (i, j) is power[j] then cls[start + i]
            products = cls[start:start + step][:, power].reshape(-1, n)
            mask[_rank_images(products)] = True
            if np.array_equal(mask, target):
                return e
    return None


def _tuple_covering_exponent(members: Sequence[tuple[int, ...]], n: int) -> int | None:
    """_covering_exponent on Python sets of image tuples."""
    import numpy as np

    alternating = frozenset(_even_tuples(n))
    members = list(map(tuple, np.asarray(members).tolist()))
    power = set(members)
    for e in range(1, 5):
        if e > 1:
            power = {_compose_images(p, c) for p in power for c in members}
        if power == alternating:
            return e
    return None


# --- conjugator plumbing -------------------------------------------------------


def canonical_of_type(cycle_type: tuple[int, ...]) -> Permutation:
    """The permutation of that cycle type laid out on consecutive points."""
    return Permutation.from_images(_images_of_type(sorted(cycle_type, reverse=True)))


def _layout(t: tuple[int, ...]) -> tuple[int, ...]:
    """t's cycle points, longest cycle first and ties by least point, then its
    fixed points ascending: the relabelling of points that carries
    _images_of_type(cycle type, len(t)) onto t."""
    # sorted is stable under reverse, so equal lengths stay by least point
    cycles = sorted(_tuple_cycles(t), key=len, reverse=True)
    return tuple(p for cycle in cycles for p in cycle) + tuple(
        i for i, q in enumerate(t) if i == q)


def conjugator_to(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Some tau with  tau a tau^{-1} = b  (left to right) on image tuples of
    one degree; any parity."""
    if len(a) != len(b) or _tuple_cycle_type(a) != _tuple_cycle_type(b):
        raise ValueError("conjugator requires one degree and equal cycle types")
    return _compose_images(_invert_images(_layout(b)), _layout(a))


def even_conjugator_to(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """An even tau with  tau a tau^{-1} = b, or None when none exists.

    If tau0 works, every solution is z * tau0 with z centralizing b; odd
    centralizer elements come from >= 2 free points, an even-length cycle,
    or two cycles of equal odd length.  That list is complete.
    """
    tau0 = conjugator_to(a, b)
    if _tuple_even(tau0):
        return tau0
    free = [i for i, q in enumerate(b) if i == q]
    cycles = _tuple_cycles(b)
    even = [c for c in cycles if len(c) % 2 == 0]
    # the first cycle with a later one of its length, and the first such one
    equal = [(c, d) for i, c in enumerate(cycles) for d in cycles[i + 1:] if len(c) == len(d)]
    if len(free) >= 2:
        z = {free[0]: free[1], free[1]: free[0]}
    elif even:
        z = dict(zip(even[0], even[0][1:] + even[0][:1]))
    elif equal:
        c, d = equal[0]
        z = dict(zip(c + d, d + c))
    else:
        return None
    return _compose_images(tuple(z.get(i, i) for i in range(len(b))), tau0)


# --- Ore / Miller commutator witnesses ----------------------------------------


def commutator_witness(g: Permutation, n: int) -> tuple[Permutation, Permutation]:
    """Even b, c with [b, c] = g, supported in {1..max(n, 5)}.

    One exhaustive search per cycle type; all other elements of the type get
    their witness by relabelling it along g's layout.  The caller verifies
    the pair by recomposition.
    """
    if not g.is_even():
        raise OddPermutationError(f"{g} is odd, not in any alternating group")
    if g.support() and g.support()[-1] > n:
        raise SupportExceedsDegreeError(f"support of {g} exceeds degree {n}")
    if g.is_identity():
        return IDENTITY, IDENTITY
    m = max(n, 5)
    layout = _layout(g.to_images(m))
    to_canonical = _invert_images(layout)
    return tuple(Permutation.from_images(_compose_images(_compose_images(to_canonical, t), layout))
                 for t in _search_witness(g.cycle_type(), m))


def _stacked_commutator_witnesses(n: int):
    """commutator_witness for every element of A_n, in lexicographic order, as
    (N, m) uint8 image arrays g, b and c with m = max(n, 5): the elements
    padded with fixed points, and each row's pair relabelled from its type's
    _search_witness pair along the row's layout.  The caller verifies the
    pairs."""
    import numpy as np

    m = max(n, 5)
    images, _, codes = _symmetric_arrays(n)
    even = _alternating_mask(n)
    g = np.tile(np.arange(m, dtype=np.uint8), (even.sum(), 1))
    g[:, :n] = images[even]
    # padding with fixed points keeps types apart, so S_n's codes serve
    _, first, kind = np.unique(codes[even], return_index=True, return_inverse=True)
    pairs = np.array([_search_witness(_tuple_cycle_type(tuple(g[i].tolist())), m)
                      for i in first], dtype=np.uint8)[kind]
    layout = _layouts(g)
    to_canonical = np.argsort(layout, axis=1)
    # as commutator_witness: to_canonical, then the canonical witness, then layout
    b, c = (np.take_along_axis(layout, np.take_along_axis(pairs[:, k], to_canonical, axis=1),
                               axis=1) for k in (0, 1))
    return g, b, c


@cache
def _search_witness(cycle_type: tuple[int, ...], m: int) -> tuple[tuple, tuple]:
    # Even image tuples b, c of degree m with [b, c] = rep, the canonical element
    # of the type.  [b, c] = rep  iff  b c b^{-1} = rep * c, and the left side
    # is a conjugate of c; so scan c and look for an even conjugator.
    rep = _images_of_type(sorted(cycle_type, reverse=True), m)
    # lazily: the first c that works comes early in the scan
    for c in filter(_tuple_even, permutations(range(m))):
        u = _compose_images(rep, c)
        if _tuple_cycle_type(u) != _tuple_cycle_type(c):
            continue
        b = even_conjugator_to(c, u)
        if b is not None:
            return b, c
    raise SearchExhaustedError(
        f"no commutator witness for {Permutation.from_images(rep)} in A_{m}")


# --- conjugate-product certificates (the 5.3 recipe) ----------------------------


@dataclass(frozen=True)
class ConjugateFactor:
    conjugator: Permutation
    sign: int  # +1 for the base, -1 for its inverse


@dataclass
class ConjugateProductCertificate:
    """target == product over factors of  w * base^sign * w^{-1}  (left to right)."""

    target: Permutation
    base: Permutation
    factors: list[ConjugateFactor]
    requested_base: Permutation
    modifications: tuple[Permutation, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def recomposed(self) -> Permutation:
        acc = IDENTITY
        for f in self.factors:
            core = self.base if f.sign > 0 else self.base.inverse()
            acc = acc.then(core.conjugated_by(f.conjugator))
        return acc

    def verify(self) -> bool:
        return self.recomposed() == self.target

    def factor_count(self) -> int:
        return len(self.factors)

    def to_json_dict(self) -> dict:
        return {
            "kind": "conjugate-product",
            "target": str(self.target),
            "base": str(self.base),
            "requested_base": str(self.requested_base),
            "modifications": [str(t) for t in self.modifications],
            "factors": [{"conjugator": str(f.conjugator), "sign": f.sign} for f in self.factors],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConjugateProductCertificate":
        return cls(
            target=Permutation.parse(data["target"]),
            base=Permutation.parse(data["base"]),
            factors=[
                ConjugateFactor(Permutation.parse(f["conjugator"]), int(f["sign"]))
                for f in data["factors"]
            ],
            requested_base=Permutation.parse(data.get("requested_base", data["base"])),
            modifications=tuple(Permutation.parse(t) for t in data.get("modifications", [])),
            diagnostics=data.get("diagnostics", {}),
        )


@cache
def _window_class(base_type: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(conjugacy_class(canonical_of_type(base_type), degree).members))


@cache
def _pair_index(base_type: tuple[int, ...], degree: int) -> dict:
    """u -> (c1, c2) with u = c1 * c2, first pair in sorted order."""
    index: dict = {}
    members = _window_class(base_type, degree)
    for c1 in members:
        for c2 in members:
            u = _compose_images(c1, c2)
            if u not in index:
                index[u] = (c1, c2)
    return index


def _decompose_in_window(target: tuple[int, ...], base_type: tuple[int, ...], degree: int):
    """target as a product of at most four class members, shortest first."""
    members = _window_class(base_type, degree)
    member_set = set(members)
    if target in member_set:
        return [target]
    for c1 in members:
        c2 = _compose_images(_invert_images(c1), target)
        if c2 in member_set:
            return [c1, c2]
    index = _pair_index(base_type, degree)
    for c1 in members:
        u = _compose_images(_invert_images(c1), target)
        if u in index:
            return [c1, *index[u]]
    for u, (c1, c2) in index.items():
        v = _compose_images(_invert_images(u), target)
        if v in index:
            return [c1, c2, *index[v]]
    raise BlockSearchFailedError(
        f"window A_{degree} block not covered by four conjugates",
        {"target": str(Permutation.from_images(target)), "type": base_type},
    )


def _even_prefix_split(rest: Permutation, window: int):
    from .cutting import split

    for k in (window, window - 1, window - 2):
        pair = split(rest, k)
        if pair.left.is_even():
            return pair
    raise BlockSearchFailedError(
        "no even prefix at three consecutive split positions",
        {"rest": str(rest), "window": window},
    )


def express_as_conjugates(h: Permutation, g: Permutation) -> ConjugateProductCertificate:
    """Write h as a short product of conjugates of g.

    The base is first modified by fresh transpositions (at most two) until it
    is even with an orbit of length two.  h is then split into even blocks of
    support at most supp(base)+1, each block is transported into a window of
    that size and decomposed into at most four conjugates by the covering
    BFS.  Factor count is at most 8 supp(h) / supp(base) + 4, and the
    certificate is verified by recomposition before it is returned.
    """
    if g.is_identity():
        raise IdentityBaseError("cannot express anything with an identity base")
    base = g
    mods: list[Permutation] = []
    top = max([p for s in (g.support(), h.support()) for p in s] or [0])
    fresh = top + 1
    while not base.is_even() or 2 not in base.cycle_type():
        t = Permutation.transposition(fresh, fresh + 1)
        fresh += 2
        base = base.then(t)
        mods.append(t)
        if len(mods) > 2:
            raise AssertionError("modification should settle within two transpositions")

    def certificate(factors, blocks):
        cert = ConjugateProductCertificate(
            target=h,
            base=base,
            factors=factors,
            requested_base=g,
            modifications=tuple(mods),
            diagnostics={
                "window": supp_norm(base) + 1,
                "base_support": supp_norm(base),
                "blocks": blocks,
                "stage_constant": supp_norm(base),
                "modified": bool(mods),
            },
        )
        if not cert.verify():
            raise BlockSearchFailedError("certificate failed recomposition", cert.to_json_dict())
        return cert

    if h.is_identity():
        return certificate([], 0)
    if not h.is_even():
        raise OddPermutationError(
            f"{h} is odd; products of conjugates of an even base are even"
        )
    if h == base:
        return certificate([ConjugateFactor(IDENTITY, +1)], 1)

    K = supp_norm(base)
    window = K + 1
    blocks: list[Permutation] = []
    rest = h
    while supp_norm(rest) > window:
        pair = _even_prefix_split(rest, window)
        blocks.append(pair.left)
        rest = pair.right
    if not rest.is_identity():
        blocks.append(rest)

    # every conjugator on one degree: fresh - 1 is the top point of h and the
    # modified base
    degree = max(fresh - 1, window)
    base_type = base.cycle_type()
    sigma_w = _images_of_type(base_type, degree)
    to_window = conjugator_to(base.to_images(degree), sigma_w)
    factors: list[ConjugateFactor] = []
    for block in blocks:
        block_type = block.cycle_type()
        from_block = conjugator_to(_images_of_type(block_type, degree), block.to_images(degree))
        for c in _decompose_in_window(_images_of_type(block_type, window), base_type, window):
            w = conjugator_to(sigma_w, c + tuple(range(window, degree)))
            v = _compose_images(_compose_images(from_block, w), to_window)
            factors.append(ConjugateFactor(Permutation.from_images(v), +1))
    return certificate(factors, len(blocks))
