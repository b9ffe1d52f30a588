"""Finitely supported permutations of the positive integers.

Cycles compose left to right: in ``(x y)(y z)`` the left cycle acts first,
so the product is ``(x z y)``.  All norms and projections in the package
rely on this convention; ``test_perms.py`` pins it with a regression test.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter


class OddPermutationError(ValueError):
    """Raised when an operation defined on even permutations gets an odd one."""


class PermutationSearchError(RuntimeError):
    """Raised when a BFS oracle would exceed its configured ambient bound."""


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A finitely supported bijection of {1, 2, 3, ...}, stored sparsely.

    Only moved points are kept: ``mapping[p] = q`` with ``p != q``.
    Instances are immutable and hashable.
    """

    __slots__ = ("_map", "_key")

    def __init__(self, mapping: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if mapping:
            for p, q in mapping.items():
                if p < 1 or q < 1:
                    raise ValueError(f"points must be positive integers, got {p}->{q}")
                if p != q:
                    clean[p] = q
            if set(clean.keys()) != set(clean.values()):
                raise ValueError("mapping is not a bijection of its support")
        self._map = clean
        self._key = tuple(sorted(clean.items()))

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @classmethod
    def from_cycles(cls, cycles) -> "Permutation":
        """Build from disjoint cycles; length-1 cycles are dropped."""
        mapping: dict[int, int] = {}
        seen: set[int] = set()
        for cyc in cycles:
            cyc = list(cyc)
            if len(cyc) <= 1:
                continue
            if seen.intersection(cyc) or len(set(cyc)) != len(cyc):
                raise ValueError(f"cycles are not disjoint: {cycles}")
            seen.update(cyc)
            for a, b in zip(cyc, cyc[1:]):
                mapping[a] = b
            mapping[cyc[-1]] = cyc[0]
        return cls(mapping)

    @classmethod
    def transposition(cls, a: int, b: int) -> "Permutation":
        return cls.from_cycles([(a, b)])

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse cycle notation like ``"(1 2 3)(5 6)"``; identity is ``"()"``."""
        text = text.strip()
        if text in ("", "()"):
            return cls()
        chunks = _CYCLE_RE.findall(text)
        if not chunks or _CYCLE_RE.sub("", text).strip():
            raise ValueError(f"not cycle notation: {text!r}")
        cycles = []
        for chunk in chunks:
            if chunk.strip():
                cycles.append([int(tok) for tok in chunk.split()])
        return cls.from_cycles(cycles)

    def __call__(self, point: int) -> int:
        return self._map.get(point, point)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r})"

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycles)

    def __bool__(self) -> bool:
        return bool(self._map)

    def is_identity(self) -> bool:
        return not self._map

    def support(self) -> tuple[int, ...]:
        """Moved points in increasing order."""
        return tuple(sorted(self._map))

    def inverse(self) -> "Permutation":
        return Permutation({q: p for p, q in self._map.items()})

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: self first, then other."""
        mapping = {}
        for p in set(self._map) | set(other._map):
            q = other(self(p))
            if q != p:
                mapping[p] = q
        return Permutation(mapping)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.then(other)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition: min-first cycles, sorted by minimum."""
        out = []
        seen: set[int] = set()
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            p = self._map[start]
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = self._map[p]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Non-trivial cycle lengths, descending."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def sign(self) -> int:
        return 1 if self.is_even() else -1

    def conjugated_by(self, tau: "Permutation") -> "Permutation":
        """tau * self * tau^{-1} under left-to-right composition."""
        return tau.then(self).then(tau.inverse())

    def to_images(self, degree: int) -> tuple[int, ...]:
        """0-based image tuple on {1..degree}; degree must cover the support."""
        if self._map and max(self._map) > degree:
            raise ValueError(f"support exceeds degree {degree}")
        return tuple(self._map.get(i, i) - 1 for i in range(1, degree + 1))

    @classmethod
    def from_images(cls, images) -> "Permutation":
        """Inverse of :meth:`to_images`."""
        return cls({i + 1: q + 1 for i, q in enumerate(images) if q != i})


IDENTITY = Permutation()


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a`` first, then ``b``."""
    return a.then(b)


def compose_all(perms) -> Permutation:
    acc = IDENTITY
    for p in perms:
        acc = acc.then(p)
    return acc


def commutator(b: Permutation, c: Permutation) -> Permutation:
    """b c b^{-1} c^{-1}, read left to right."""
    return b.then(c).then(b.inverse()).then(c.inverse())


def supp_norm(sigma: Permutation) -> int:
    """Number of moved points; the support norm."""
    return len(sigma._map)


def tr_norm(sigma: Permutation) -> int:
    """Minimal number of transpositions multiplying to sigma.

    Closed form: support size minus the number of non-trivial cycles.
    norms.bfs_tr_agreement certifies it as the word length over
    transpositions on exhaustive S_norm_degree (n <= 8), and test_wordnorm.py
    checks it against a BFS on S_3..S_5.
    """
    return supp_norm(sigma) - len(sigma.cycles())


# --- 0-based image tuples: t[i] is the image of i, products left to right ---


def _compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < 2:
        # itemgetter of one index returns a scalar, of none raises
        return tuple(b[x] for x in a)
    return itemgetter(*a)(b)


def _invert_images(t: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(t)
    for i, q in enumerate(t):
        out[q] = i
    return tuple(out)


def _tuple_cycles(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Non-trivial cycles, each from its least point, ordered by least point,
    as Permutation.cycles."""
    seen = [False] * len(t)
    cycles = []
    for i in range(len(t)):
        if seen[i] or t[i] == i:
            continue
        # i is its cycle's least point and the loop is past it: mark only the rest
        cycle, j = [i], t[i]
        while j != i:
            seen[j] = True
            cycle.append(j)
            j = t[j]
        cycles.append(tuple(cycle))
    return cycles


def _tuple_cycle_type(t: tuple[int, ...]) -> tuple[int, ...]:
    """Non-trivial cycle lengths, descending, as Permutation.cycle_type."""
    return tuple(sorted(map(len, _tuple_cycles(t)), reverse=True))


def _full_cycle_type(t: tuple[int, ...]) -> tuple[int, ...]:
    """Every cycle length, fixed points included, descending."""
    moved = _tuple_cycle_type(t)
    return moved + (1,) * (len(t) - sum(moved))


def _images_of_type(cycle_type, degree: int = 0) -> tuple[int, ...]:
    """The image tuple whose cycles, of these lengths in this order, lie on
    consecutive points, padded with fixed points to degree."""
    images: list[int] = []
    for length in cycle_type:
        start = len(images)
        images.extend(range(start + 1, start + length))
        images.append(start)
    images.extend(range(len(images), degree))
    return tuple(images)


def _tuple_even(t: tuple[int, ...]) -> bool:
    return sum(len(c) - 1 for c in _tuple_cycles(t)) % 2 == 0


def _even_tuples(n: int) -> list[tuple[int, ...]]:
    """The elements of A_n in lexicographic order."""
    return [t for t in permutations(range(n)) if _tuple_even(t)]


# --- (N, n) uint8 image arrays, indexed by lexicographic rank in S_n --------
# numpy is imported inside these helpers: perms loads before anything that
# needs numpy, and loading numpy earlier raises the CLI's peak RSS.


def _rank_images(images):
    """Lexicographic rank in S_n of each row of an (N, n) image array.

    Rank order is the order of ``permutations(range(n))``, so the ranks of
    ``_even_tuples(n)`` increase.
    """
    import numpy as np

    images = np.asarray(images)
    n = images.shape[1]
    masks = np.arange(1 << n)
    popcount = sum((masks >> bit) & 1 for bit in range(n))
    used = np.zeros(len(images), dtype=np.int64)
    ranks = np.zeros(len(images), dtype=np.int64)
    for i in range(n - 1):
        # Lehmer digit i: values below images[:, i] not used by an earlier
        # column; Horner in the factorial base
        value = images[:, i].astype(np.int64)
        bit = 1 << value
        ranks = ranks * (n - i) + value - popcount[used & (bit - 1)]
        used |= bit
    return ranks


def _unrank_images(ranks, n: int):
    """The (N, n) uint8 image array with these ranks; inverse of _rank_images."""
    import numpy as np

    ranks = np.asarray(ranks, dtype=np.int64)
    rows = np.arange(len(ranks))
    unused = np.broadcast_to(np.arange(n, dtype=np.uint8), (len(ranks), n))
    out = np.empty((len(ranks), n), dtype=np.uint8)
    for i in range(n):
        digit, ranks = np.divmod(ranks, factorial(n - 1 - i))
        out[:, i] = unused[rows, digit]
        # drop the value just used; the rest stay in increasing order
        after = np.arange(n - 1 - i) >= digit[:, None]
        unused = np.where(after, unused[:, 1:], unused[:, :-1])
    return out


@lru_cache(maxsize=None)
def _symmetric_arrays(n: int):
    """S_n as an (n!, n) uint8 image array in rank order, with its
    _cycle_lengths and _cycle_type_codes; built on first call, read-only.

    Equals _unrank_images(arange(n!), n): the row of rank d (k - 1)! + r of
    S_k is d, then row r of S_(k - 1) with every value from d up raised by
    one, so each k takes one gather from S_(k - 1).
    """
    import numpy as np

    images = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        # lift[d, v]: value v of S_(k - 1) once d is taken first
        lift = (np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])).astype(np.uint8)
        rest = lift[:, images].reshape(k * len(images), k - 1)
        images = np.empty((len(rest), k), dtype=np.uint8)
        images[:, 0] = np.arange(len(rest)) // factorial(k - 1)
        images[:, 1:] = rest
    lengths = _cycle_lengths(images)
    arrays = images, lengths, _cycle_type_codes(lengths)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _adjacent_rank_steps(n: int):
    """Row a maps every S_n rank to the rank of g then (a a+1), which swaps the
    values a and a + 1 of g's row.  Only one Lehmer digit moves, by one: with
    p and q the positions of a and a + 1, the rank rises by (n - 1 - p)! when
    p < q and falls by (n - 1 - q)! otherwise.  (n - 1, n!) in the narrowest
    unsigned dtype that holds a rank."""
    import numpy as np

    images = _symmetric_arrays(n)[0]
    ranks = np.arange(len(images))
    # where[:, v] is the position of value v, filled a column at a time so
    # that no (n!, n) index stack is held
    where = np.empty_like(images)
    for j in range(n):
        where[ranks, images[:, j]] = j
    steps = np.empty((max(n - 1, 0), len(images)), dtype=np.min_scalar_type(len(images)))
    up = np.array([factorial(n - 1 - i) for i in range(n)])
    for a in range(n - 1):
        p, q = where[:, a], where[:, a + 1]
        steps[a] = ranks + np.where(p < q, up[p], -up[q])
    return steps


def _adjacent_word(s: tuple[int, ...]) -> list[int]:
    """Values a whose swaps (a a+1), composed left to right, give s."""
    where = list(_invert_images(s))
    word = []
    a = 0
    # sort the positions of the values: each swap of a and a + 1 undoes one
    # inversion of s, and s is those swaps in reverse
    while a < len(where) - 1:
        if where[a] > where[a + 1]:
            where[a], where[a + 1] = where[a + 1], where[a]
            word.append(a)
            a = max(a - 1, 0)
        else:
            a += 1
    return word[::-1]


def _neighbour_columns(images, gens, position):
    """For each generator s, the position of g s (g first, then s) for every
    row g of an (N, n) image array: position maps an S_n rank to a row.

    Each column walks the rows' ranks along s's word in adjacent swaps
    (_adjacent_word), one gather of _adjacent_rank_steps per swap.  One column
    at a time, so no (N, len(gens)) table is held.
    """
    import numpy as np

    steps = _adjacent_rank_steps(images.shape[1])
    carrier = np.flatnonzero(position >= 0)
    start = np.empty_like(carrier)
    start[position[carrier]] = carrier  # the rank of each row
    for s in gens:
        ranks = start
        for a in _adjacent_word(tuple(s)):
            ranks = steps[a].take(ranks)  # take gathers narrow indices faster
        yield position[ranks]


def _cycle_lengths(images):
    """For every row of an (N, n) image array, the length of the cycle whose
    least point is j in column j, and 0 where j is not least in its cycle
    (uint8).  n - 1 steps along each cycle reach every point's least orbit
    point.

    Its own walk, not _cycle_walk: one gather and one minimum per step, and
    _cycle_lengths built from _cycle_walk took about twice as long at S_8 and
    S_9.
    """
    import numpy as np

    n = images.shape[1]
    low = np.broadcast_to(np.arange(n, dtype=images.dtype), images.shape)
    walk = images
    for _ in range(n - 1):
        low = np.minimum(low, walk)
        walk = np.take_along_axis(images, walk, axis=1)
    return np.stack([(low == j).sum(axis=1, dtype=np.uint8) for j in range(n)], axis=1)


def _cycle_walk(images):
    """Per point of each row of an (N, n) image array: the least point of its
    cycle, its steps forward from that point, and its cycle length.  Fixed
    points are their own least point at step 0 of a 1-cycle.  Takes n
    gathers; each result has the input's dtype."""
    import numpy as np

    points = np.broadcast_to(np.arange(images.shape[1], dtype=images.dtype), images.shape)
    low = points.copy()
    to_low = np.zeros_like(low)  # steps forward from the point to its least point
    length = np.zeros_like(low)
    walk = points
    for step in range(1, images.shape[1] + 1):
        walk = np.take_along_axis(images, walk, axis=1)
        lower = walk < low
        low = np.where(lower, walk, low)
        to_low = np.where(lower, step, to_low)
        length = np.where((length == 0) & (walk == points), step, length)
    return low, (length - to_low) % length, length


def _cycle_type_codes(lengths):
    """One int64 code per row of _cycle_lengths, equal exactly when the cycle
    types are: the digit at place k >= 1 in base n + 1 counts the cycles of
    length k, and place 0 counts the points that are not least in their
    cycle.  One column at a time, so no (N, n) int64 stack is held."""
    import numpy as np

    powers = (lengths.shape[1] + 1) ** np.arange(lengths.shape[1] + 1, dtype=np.int64)
    codes = np.zeros(len(lengths), dtype=np.int64)
    for column in lengths.T:
        codes += powers[column]
    return codes


def _layouts(images):
    """covering._layout of every row of an (N, n) image array, n < 32: the
    points ordered by their cycle's length, longest first, then by the
    cycle's least point, then by steps from that point, so that fixed points
    come last in ascending order."""
    import numpy as np

    n = images.shape[1]
    # int16 throughout: the sort keys stay below n^3
    low, steps, length = _cycle_walk(images.astype(np.int16))
    return np.argsort(((n - length) * n + low) * n + steps, axis=1).astype(images.dtype)


def _cycle_norms(lengths):
    """supp_norm and tr_norm of every row of _cycle_lengths: the moved points,
    and n minus the number of cycles, fixed points included."""
    n = lengths.shape[1]
    return n - (lengths == 1).sum(axis=1), n - (lengths > 0).sum(axis=1)


def three_cycle_generators(n: int) -> list[tuple[int, ...]]:
    """Every 3-cycle of S_n as an image tuple."""
    gens = []
    for a, b, c in combinations(range(n), 3):
        for cyc in ((a, b, c), (a, c, b)):
            images = list(range(n))
            images[cyc[0]], images[cyc[1]], images[cyc[2]] = cyc[1], cyc[2], cyc[0]
            gens.append(tuple(images))
    return gens


# --- 3-cycle word norm on cycle types -----------------------------------------

# Ambient degrees above this are refused.  norms.three_cycle_oracle measures
# every element of A_m, held as an (N, m) image array and read row by row as
# tuples, a failure replays an element BFS over A_m, and ambient stability
# reads the table of A_(m+1); so alternating_degree stays one below this.
MAX_THREE_CYCLE_DEGREE = 8


@lru_cache(maxsize=None)
def _three_cycle_table(degree: int) -> dict[tuple[int, ...], int]:
    """Exact 3-cycle word length of every even cycle type of S_degree.

    Keys are full cycle types: lengths descending, fixed points included.
    The 3-cycles form a normal subset of S_n, so each ball of the word norm
    is a union of cycle types, and the types of r s over the 3-cycles s
    depend only on the type of r.  A BFS over types is therefore exact.
    norms.three_cycle_oracle certifies its values as the word lengths on the
    image array of A_n (wordnorm.certify_word_lengths); only a failure replays
    wordnorm.bfs_norm over A_n.
    """
    from . import wordnorm  # wordnorm imports perms

    gens = three_cycle_generators(degree)

    def step(cycle_type):
        rep = _images_of_type(cycle_type)
        return dict.fromkeys(_full_cycle_type(_compose_images(rep, s)) for s in gens)

    return wordnorm.bfs([(1,) * degree], step)


def three_cycle_norm(sigma: Permutation, ambient: int | None = None) -> int:
    """Minimal number of 3-cycles multiplying to sigma (sigma must be even).

    Read from the cycle-type table of the bounding alternating group, padded
    to at least A_5; ambient degrees above MAX_THREE_CYCLE_DEGREE are refused.
    """
    # one walk: parity and the full cycle type are both read off the cycles
    lengths = sorted(map(len, sigma.cycles()), reverse=True)
    if sum(lengths) % 2 != len(lengths) % 2:
        raise OddPermutationError(f"{sigma} is odd; 3-cycles only generate A_n")
    if not lengths:
        return 0
    degree = max(max(sigma._map), 5)
    if ambient is not None:
        if ambient < degree:
            raise ValueError(f"ambient {ambient} does not contain the support")
        degree = ambient
    if degree > MAX_THREE_CYCLE_DEGREE:
        raise PermutationSearchError(
            f"3-cycle norm refused for A_{degree} (> A_{MAX_THREE_CYCLE_DEGREE})"
        )
    return _three_cycle_table(degree)[(*lengths, *(1,) * (degree - sum(lengths)))]
