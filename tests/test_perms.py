"""Permutation arithmetic and the three conjugation-invariant norms."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conecheck import perms, wordnorm
from conecheck.perms import (
    IDENTITY,
    OddPermutationError,
    Permutation,
    PermutationSearchError,
    _compose_images,
    _full_cycle_type,
    _cycle_lengths,
    _cycle_norms,
    _cycle_type_codes,
    _cycle_walk,
    _neighbour_columns,
    _rank_images,
    _three_cycle_table,
    _unrank_images,
    commutator,
    compose,
    compose_all,
    supp_norm,
    three_cycle_generators,
    three_cycle_norm,
    tr_norm,
)
from conecheck.report import RunConfig
from conecheck.suites import run_norms


def bfs_word_lengths(degree, generators):
    """Independent BFS oracle over image tuples, multiplied left to right."""
    identity = tuple(range(degree))
    dist = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = tuple(s[x] for x in g)
                if h not in dist:
                    dist[h] = dist[g] + 1
                    nxt.append(h)
        frontier = nxt
    return dist


def all_transpositions(degree):
    gens = []
    for i, j in itertools.combinations(range(degree), 2):
        images = list(range(degree))
        images[i], images[j] = j, i
        gens.append(tuple(images))
    return gens


def all_three_cycles(degree):
    gens = []
    for a, b, c in itertools.combinations(range(degree), 3):
        for cyc in ((a, b, c), (a, c, b)):
            images = list(range(degree))
            images[cyc[0]], images[cyc[1]], images[cyc[2]] = cyc[1], cyc[2], cyc[0]
            gens.append(tuple(images))
    return gens


perm_strategy = st.builds(
    lambda images: Permutation.from_images(tuple(images)),
    st.permutations(range(8)),
)


class TestComposition:
    def test_left_to_right_convention(self):
        # (x y)(y z) = (x z y); locking this means the convention cannot flip
        assert compose(Permutation.parse("(1 2)"), Permutation.parse("(2 3)")) == \
            Permutation.parse("(1 3 2)")

    def test_identity_neutral(self):
        sigma = Permutation.parse("(1 4 2)(3 5)")
        assert compose(sigma, IDENTITY) == sigma
        assert compose(IDENTITY, sigma) == sigma

    def test_involution(self):
        t = Permutation.parse("(1 2)")
        assert compose(t, t).is_identity()

    @given(perm_strategy, perm_strategy, perm_strategy)
    def test_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(perm_strategy, perm_strategy)
    def test_support_of_product(self, a, b):
        prod = compose(a, b)
        assert set(prod.support()) <= set(a.support()) | set(b.support())

    @given(perm_strategy)
    def test_inverse(self, p):
        assert compose(p, p.inverse()).is_identity()
        assert p.inverse().inverse() == p


class TestCycles:
    def test_canonical_form(self):
        sigma = Permutation({5: 6, 6: 5, 2: 3, 3: 1, 1: 2})
        assert sigma.cycles() == ((1, 2, 3), (5, 6))

    @given(perm_strategy)
    def test_cycles_recompose(self, p):
        assert compose_all(Permutation.from_cycles([c]) for c in p.cycles()) == p

    @given(perm_strategy)
    def test_cycles_disjoint_min_first(self, p):
        seen = set()
        minima = []
        for cyc in p.cycles():
            assert len(cyc) >= 2
            assert cyc[0] == min(cyc)
            assert not seen & set(cyc)
            seen |= set(cyc)
            minima.append(cyc[0])
        assert minima == sorted(minima)

    def test_parse_print_roundtrip(self):
        for text in ["()", "(1 2 3)(5 6)", "(2 7)(3 4 5)"]:
            assert str(Permutation.parse(text)) == text
        with pytest.raises(ValueError):
            Permutation.parse("(1 2")
        with pytest.raises(ValueError):
            Permutation.parse("(1 1 2)")

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            Permutation({1: 2, 2: 2})
        with pytest.raises(ValueError):
            Permutation({0: 1, 1: 0})


class TestSupportNorm:
    def test_examples(self):
        assert supp_norm(IDENTITY) == 0
        assert supp_norm(Permutation.parse("(1 2 3)")) == 3
        assert supp_norm(Permutation.parse("(1 2)(3 4)")) == 4

    @given(perm_strategy, perm_strategy)
    def test_conjugation_invariant(self, p, t):
        assert supp_norm(p.conjugated_by(t)) == supp_norm(p)


class TestTranspositionNorm:
    def test_examples(self):
        assert tr_norm(Permutation.parse("(1 2)")) == 1
        assert tr_norm(IDENTITY) == 0

    def test_four_cycle_against_oracle(self):
        oracle = bfs_word_lengths(4, all_transpositions(4))
        four_cycle = Permutation.parse("(1 2 3 4)")
        assert oracle[four_cycle.to_images(4)] == 3  # frozen from the BFS oracle
        assert tr_norm(four_cycle) == 3

    def test_closed_form_matches_oracle_on_s5(self):
        oracle = bfs_word_lengths(5, all_transpositions(5))
        for images, length in oracle.items():
            assert tr_norm(Permutation.from_images(images)) == length


class TestThreeCycleNorm:
    def test_examples(self):
        assert three_cycle_norm(Permutation.parse("(1 2 3)")) == 1
        assert three_cycle_norm(IDENTITY) == 0

    def test_double_transposition_against_oracle(self):
        oracle = bfs_word_lengths(4, all_three_cycles(4))
        target = Permutation.parse("(1 2)(3 4)")
        # the even elements of S_4 form A_4; the oracle reaches exactly those
        assert len(oracle) == 12
        assert oracle[target.to_images(4)] == 2  # frozen; <= 3 by the 3-cycle identity
        assert three_cycle_norm(target) == 2

    def test_oracle_agreement_on_a5(self):
        oracle = bfs_word_lengths(5, all_three_cycles(5))
        for images, length in oracle.items():
            assert three_cycle_norm(Permutation.from_images(images)) == length

    def test_odd_rejected(self):
        with pytest.raises(OddPermutationError):
            three_cycle_norm(Permutation.parse("(1 2)"))

    def test_ambient_refusal(self):
        big = Permutation.from_cycles([tuple(range(1, 10))])
        with pytest.raises(PermutationSearchError):
            three_cycle_norm(big)

    def test_ambient_stability_a6_vs_a8(self):
        # the word norm is defined over all of A_infinity; the minimal
        # bounding group must not overestimate it, so growing the ambient
        # by two points must not change any value
        for images in itertools.permutations(range(6)):
            p = Permutation.from_images(images)
            if p.is_even() and not p.is_identity():
                assert three_cycle_norm(p) == three_cycle_norm(p, ambient=8)


def partitions(n, largest=None):
    """Every partition of n, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


class TestThreeCycleTable:
    @pytest.mark.parametrize("n", range(5, 8))
    def test_matches_element_bfs(self, n):
        table = _three_cycle_table(n)
        alt = wordnorm.alternating_oracle(n)
        by_element = wordnorm.bfs_norm(alt, three_cycle_generators(n))
        for t in alt.elements:
            assert table[_full_cycle_type(t)] == by_element[t], t

    @pytest.mark.parametrize("n", range(5, 13))
    def test_closed_form_on_every_even_type(self, n):
        # 2 n3 = n - #odd cycles, fixed points included
        even_types = {t for t in partitions(n) if sum(part - 1 for part in t) % 2 == 0}
        table = _three_cycle_table(n)
        assert set(table) == even_types
        for cycle_type, length in table.items():
            assert 2 * length == n - sum(part % 2 for part in cycle_type), cycle_type

    def test_wrong_table_fails_three_cycle_oracle(self, monkeypatch):
        # off by one on the type (3, 3) of A_6 only: the element BFS catches it
        # at the first element of that type in lexicographic order
        true_table = _three_cycle_table

        def wrong_table(degree):
            table = dict(true_table(degree))
            if degree == 6:
                table[(3, 3)] += 1
            return table

        monkeypatch.setattr(perms, "_three_cycle_table", wrong_table)
        cfg = RunConfig.small()
        cfg.alternating_degree = 6
        row = next(c for c in run_norms(cfg) if c.check_id == "norms.three_cycle_oracle")
        first = next(t for t in itertools.permutations(range(6))
                     if _full_cycle_type(t) == (3, 3))
        assert row.status == "fail"
        assert row.witness == str(Permutation.from_images(first))


class TestImagePrimitives:
    @given(st.integers(0, 9).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
    def test_compose_images_matches_generator(self, pair):
        a, b = (tuple(t) for t in pair)
        assert _compose_images(a, b) == tuple(b[x] for x in a)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_rank_ignores_integer_dtype(self, n, dtype):
        rows = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        assert (_rank_images(rows.astype(dtype)) == _rank_images(rows)).all()


class TestAlgebra:
    @given(perm_strategy, perm_strategy)
    def test_conjugation_is_automorphism(self, p, t):
        q = Permutation.parse("(1 3 5)")
        lhs = compose(p, q).conjugated_by(t)
        rhs = compose(p.conjugated_by(t), q.conjugated_by(t))
        assert lhs == rhs

    @given(perm_strategy, perm_strategy)
    def test_commutator_sign(self, b, c):
        assert commutator(b, c).is_even()

    def test_sign(self):
        assert Permutation.parse("(1 2)").sign() == -1
        assert Permutation.parse("(1 2 3)").sign() == 1
        assert IDENTITY.sign() == 1

    @given(perm_strategy)
    def test_images_roundtrip(self, p):
        assert Permutation.from_images(p.to_images(9)) == p

    @given(perm_strategy)
    def test_parse_roundtrip(self, p):
        assert Permutation.parse(str(p)) == p


class TestImageRanks:
    @given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))))
    def test_unrank_inverts_rank(self, images):
        rows = np.array([images], dtype=np.uint8)
        assert (_unrank_images(_rank_images(rows), len(images)) == rows).all()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ranks_follow_permutations_order(self, n):
        rows = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        assert (_rank_images(rows) == np.arange(math.factorial(n))).all()
        assert (_unrank_images(np.arange(math.factorial(n)), n) == rows).all()


class TestImageArrayNorms:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_supp_and_tr_match_the_permutation_norms(self, n):
        rows = _unrank_images(np.arange(math.factorial(n)), n)
        supp, tr = _cycle_norms(_cycle_lengths(rows))
        sigmas = [Permutation.from_images(t) for t in itertools.permutations(range(n))]
        assert supp.tolist() == [supp_norm(p) for p in sigmas]
        assert tr.tolist() == [tr_norm(p) for p in sigmas]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_lengths_give_the_full_cycle_type(self, n):
        rows = _unrank_images(np.arange(math.factorial(n)), n)
        for t, lengths in zip(itertools.permutations(range(n)), _cycle_lengths(rows)):
            assert tuple(sorted(lengths[lengths > 0].tolist(), reverse=True)) \
                == _full_cycle_type(t), t
            # each cycle is counted at its least point
            assert all(lengths[min(cycle)] == len(cycle) for cycle in perms._tuple_cycles(t))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_cycle_walk_reads_each_point_off_its_tuple_cycle(self, n, dtype):
        rows = _unrank_images(np.arange(math.factorial(n)), n).astype(dtype)
        low, steps, length = _cycle_walk(rows)
        assert low.dtype == steps.dtype == length.dtype == dtype
        for t, *walked in zip(itertools.permutations(range(n)), low, steps, length):
            expected = [list(range(n)), [0] * n, [1] * n]
            for cycle in perms._tuple_cycles(t):
                for k, point in enumerate(cycle):
                    expected[0][point], expected[1][point] = cycle[0], k
                    expected[2][point] = len(cycle)
            assert [w.tolist() for w in walked] == expected, t

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cycle_type_codes_separate_exactly_the_cycle_types(self, n):
        rows = _unrank_images(np.arange(math.factorial(n)), n)
        codes = _cycle_type_codes(_cycle_lengths(rows)).tolist()
        types = [_full_cycle_type(t) for t in itertools.permutations(range(n))]
        assert len(set(zip(codes, types))) == len(set(codes)) == len(set(types))

    @pytest.mark.parametrize("n, even", [(4, False), (5, False), (5, True), (6, True)])
    def test_neighbour_columns_are_products(self, n, even):
        # position maps each S_n rank to its row, -1 off the carrier
        elements = [t for t in itertools.permutations(range(n))
                    if not even or Permutation.from_images(t).is_even()]
        rows = np.array(elements, dtype=np.uint8)
        position = np.full(math.factorial(n), -1)
        position[_rank_images(rows)] = np.arange(len(rows))
        gens = three_cycle_generators(n) if even else [
            t for t in itertools.permutations(range(n)) if sum(a != b for a, b in enumerate(t)) == 2]
        for s, column in zip(gens, _neighbour_columns(rows, gens, position)):
            assert [elements[j] for j in column] == [_compose_images(g, s) for g in elements]


def walk_sites(snippet):
    """module.function holding each line of the package that contains snippet,
    in file and line order."""
    sites = []
    for path in sorted(Path(perms.__file__).parent.glob("*.py")):
        source = path.read_text()
        defs = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        for line, text in enumerate(source.splitlines(), 1):
            if snippet in text:
                inner = max((d for d in defs if d.lineno <= line <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                sites.append(f"{path.stem}.{inner.name if inner else '<module>'}")
    return sites


def test_each_cycle_walk_is_written_once():
    # one array walk per purpose: _cycle_lengths keeps its cheaper gather and
    # minimum, and splitting, displacement and the layouts read _cycle_walk
    assert walk_sites("np.take_along_axis(images, walk, axis=1)") \
        == ["perms._cycle_lengths", "perms._cycle_walk"]
    # one tuple walk: parity and cycle types read _tuple_cycles
    assert walk_sites("seen = [False] * len(t)") == ["perms._tuple_cycles"]
