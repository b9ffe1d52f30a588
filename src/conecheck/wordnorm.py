"""Exact word norms on finite groups with conjugation-closed generating sets.

The engine is generic over a :class:`FiniteGroupOracle`; built-in carriers
cover symmetric, alternating and cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable, Hashable, Iterable, Iterator

from .perms import Permutation, _compose_images, _even_tuples, _invert_images


class NotGeneratingError(ValueError):
    """The generating set does not reach the whole carrier."""

    def __init__(self, unreached: int):
        super().__init__(f"generators do not generate: {unreached} elements unreached")
        self.unreached = unreached


@dataclass(frozen=True)
class FiniteGroupOracle:
    """A finite group given by an element list and multiplication callables.

    Elements must be hashable.  The group axioms are assumed, not checked.
    """

    name: str
    elements: tuple
    multiply: Callable[[Hashable, Hashable], Hashable]
    invert: Callable[[Hashable], Hashable]
    identity: Hashable
    describe: Callable[[Hashable], str] = field(default=str)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    def order(self) -> int:
        return len(self.elements)


@dataclass
class NormTable:
    """Exact word-norm values for every element of a finite carrier."""

    oracle: FiniteGroupOracle
    values: dict

    def __getitem__(self, g) -> int:
        return self.values[g]

    def norms(self) -> list[int]:
        return [self.values[g] for g in self.oracle.elements]

    def check_axioms(self) -> Iterator[str]:
        """A witness for each violation of positivity, symmetry or the triangle
        inequality, element by element."""
        mul, inv, name = self.oracle.multiply, self.oracle.invert, self.oracle.describe
        for g, n in self.values.items():
            if n < 0 or (n > 0) != (g != self.oracle.identity):
                yield f"positivity at {name(g)}: norm {n}"
            if self.values[inv(g)] != n:
                yield f"symmetry at {name(g)}"
        for g, ng in self.values.items():
            for h, nh in self.values.items():
                if self.values[mul(g, h)] > ng + nh:
                    yield f"triangle at {name(g)}, {name(h)}"

    def check_conjugation_invariance(self) -> Iterator[str]:
        """A witness for each element and conjugator that change the norm."""
        mul, inv, name = self.oracle.multiply, self.oracle.invert, self.oracle.describe
        for g, n in self.values.items():
            for t in self.oracle.elements:
                if self.values[mul(mul(t, g), inv(t))] != n:
                    yield f"conjugation invariance at {name(g)} by {name(t)}"


def bfs(starts: Iterable, step: Callable[[Hashable], Iterable]) -> dict:
    """Distance from the start set to every node that step reaches.

    The package's one breadth-first search.  Dict insertion order is BFS
    order: the starts, then each layer in the order its nodes were found.
    """
    dist = dict.fromkeys(starts, 0)
    frontier = list(dist)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for g in frontier:
            for h in step(g):
                if h not in dist:
                    dist[h] = depth
                    nxt.append(h)
        frontier = nxt
    return dist


def conjugacy_closure(oracle: FiniteGroupOracle, seeds: Iterable) -> frozenset:
    """Smallest superset of seeds and their inverses closed under conjugation."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    mul, inv = oracle.multiply, oracle.invert
    return frozenset(bfs(seeds + [inv(s) for s in seeds],
                         lambda s: [mul(mul(t, s), inv(t)) for t in oracle.elements]))


def bfs_norm(oracle: FiniteGroupOracle, gens: Iterable) -> NormTable:
    """Exact word length of every element; generators are inverse-closed first.

    Raises :class:`NotGeneratingError` when BFS does not reach the carrier.
    """
    mul = oracle.multiply
    gen_list = generating_set(oracle, gens)
    dist = bfs([oracle.identity], lambda g: [mul(g, s) for s in gen_list])
    if len(dist) != oracle.order():
        raise NotGeneratingError(oracle.order() - len(dist))
    return NormTable(oracle, dist)


def generating_set(oracle: FiniteGroupOracle, gens: Iterable) -> list:
    """gens closed under inverses, the identity removed, in describe order:
    the steps bfs_norm searches and certify_word_lengths checks."""
    gen_set = set(gens)
    gen_set.update(oracle.invert(s) for s in list(gen_set))
    gen_set.discard(oracle.identity)
    return sorted(gen_set, key=oracle.describe)


def certify_word_lengths(values, columns, identity: int) -> bool:
    """Whether values holds the word length of every element, without a search.

    values is an integer array over the carrier; columns yields, for each s
    of an inverse-closed generating set (see generating_set), the index of
    g s for every element g, and identity is the identity's index.  The
    shortest-path certificate holds when values is 0 at the identity,
    changes by at most 1 along every column, and drops by exactly 1 along
    some column at every other element.  The first two give values <= word
    length.  A walk of descents from g only stops at the identity, and the
    carrier is finite, so it gets there in values[g] steps: word length <=
    values.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.int64)  # signed steps
    descends = np.zeros(len(values), dtype=bool)
    descends[identity] = True
    for column in columns:
        step = values[column] - values
        if (np.abs(step) > 1).any():
            return False
        descends |= step == -1
    return bool(values[identity] == 0 and descends.all())


def audit_domination(nu: NormTable, mu: NormTable):
    """Smallest C with mu <= C * nu over non-identity elements, plus a witness.

    Realises the bound mu <= C_mu * nu_S for conjugation-invariant norms.
    """
    if nu.oracle.elements != mu.oracle.elements:
        raise ValueError("norm tables live on different carriers")
    best = Fraction(0)
    witness = nu.oracle.identity
    for g in nu.oracle.elements:
        if g == nu.oracle.identity:
            continue
        ratio = Fraction(mu.values[g], nu.values[g])
        if ratio > best:
            best, witness = ratio, g
    return best, witness


# --- built-in carriers -------------------------------------------------------


def _perm_describe(t: tuple[int, ...]) -> str:
    return str(Permutation.from_images(t))


def _image_tuple_oracle(name: str, elements, n: int) -> FiniteGroupOracle:
    """A permutation group given by its image tuples."""
    return FiniteGroupOracle(
        name=name,
        elements=elements,
        multiply=_compose_images,
        invert=_invert_images,
        identity=tuple(range(n)),
        describe=_perm_describe,
    )


def symmetric_oracle(n: int) -> FiniteGroupOracle:
    """S_n on 0-based image tuples in lexicographic order, multiplied left to right."""
    return _image_tuple_oracle(f"S_{n}", permutations(range(n)), n)


def alternating_oracle(n: int) -> FiniteGroupOracle:
    return _image_tuple_oracle(f"A_{n}", _even_tuples(n), n)


def cyclic_oracle(n: int) -> FiniteGroupOracle:
    return FiniteGroupOracle(
        name=f"Z/{n}",
        elements=tuple(range(n)),
        multiply=lambda a, b: (a + b) % n,
        invert=lambda a: (-a) % n,
        identity=0,
        describe=str,
    )


def transposition_generators(n: int) -> list[tuple[int, ...]]:
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            images = list(range(n))
            images[i], images[j] = j, i
            gens.append(tuple(images))
    return gens
