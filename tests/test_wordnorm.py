"""The generic BFS word-norm engine and its audits."""

import ast
from pathlib import Path

import pytest

import conecheck
import math

import numpy as np

from conecheck.perms import (
    Permutation,
    _neighbour_columns,
    _rank_images,
    three_cycle_generators,
    tr_norm,
)
from conecheck.wordnorm import (
    NormTable,
    NotGeneratingError,
    alternating_oracle,
    audit_domination,
    bfs,
    bfs_norm,
    certify_word_lengths,
    conjugacy_closure,
    cyclic_oracle,
    generating_set,
    symmetric_oracle,
    transposition_generators,
)


class TestBfs:
    def test_distances_from_several_starts(self):
        # the path 0 - 1 - ... - 9, searched from both ends at once
        dist = bfs([0, 9], lambda g: [h for h in (g - 1, g + 1) if 0 <= h <= 9])
        assert dist == {g: min(g, 9 - g) for g in range(10)}

    def test_unreachable_nodes_are_absent(self):
        # steps of two from 0 never reach an odd number
        dist = bfs([0], lambda g: [h for h in (g - 2, g + 2) if -10 <= h <= 10])
        assert set(dist) == set(range(-10, 11, 2))
        assert dist[-10] == dist[10] == 5

    def test_insertion_order_is_bfs_order(self):
        oracle = symmetric_oracle(4)
        gens = transposition_generators(4)
        starts = [oracle.identity, gens[0], oracle.identity]
        dist = bfs(starts, lambda g: [oracle.multiply(g, s) for s in gens])
        assert list(dist)[:2] == starts[:2]
        depths = list(dist.values())
        assert depths == sorted(depths)
        assert len(dist) == 24


def test_bfs_is_the_only_breadth_first_loop():
    # one BFS in the package: the frontier swap appears once, inside wordnorm.bfs
    package = Path(conecheck.__file__).parent
    hits = [(path.name, line) for path in sorted(package.glob("*.py"))
            for line, text in enumerate(path.read_text().splitlines(), 1)
            if "frontier = nxt" in text]
    source = (package / "wordnorm.py").read_text()
    bfs_def = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "bfs")
    assert len(hits) == 1
    assert hits[0][0] == "wordnorm.py"
    assert bfs_def.lineno <= hits[0][1] <= bfs_def.end_lineno


def test_s3_with_transpositions():
    oracle = symmetric_oracle(3)
    table = bfs_norm(oracle, transposition_generators(3))
    assert sorted(table.norms()) == [0, 1, 1, 1, 2, 2]


def test_cyclic_five():
    table = bfs_norm(cyclic_oracle(5), {1})
    assert [table[k] for k in range(5)] == [0, 1, 2, 2, 1]


def test_whole_group_as_generators():
    oracle = symmetric_oracle(3)
    gens = [g for g in oracle.elements if g != oracle.identity]
    table = bfs_norm(oracle, gens)
    assert max(table.norms()) == 1


def test_not_generating():
    with pytest.raises(NotGeneratingError) as err:
        bfs_norm(symmetric_oracle(4), three_cycle_generators(4))
    assert err.value.unreached == 12  # the odd half of S_4


def test_inverse_closure_is_automatic():
    # a bare +1 generates Z/5 once the engine adds -1
    table = bfs_norm(cyclic_oracle(5), {1})
    assert table[4] == 1


def test_conjugacy_closure_transpositions():
    oracle = symmetric_oracle(4)
    closure = conjugacy_closure(oracle, {Permutation.parse("(1 2)").to_images(4)})
    assert len(closure) == 6
    assert all(Permutation.from_images(t).cycle_type() == (2,) for t in closure)


def test_conjugacy_closure_identity():
    oracle = symmetric_oracle(3)
    assert conjugacy_closure(oracle, {oracle.identity}) == frozenset({oracle.identity})


def test_conjugacy_closure_three_cycles_in_a5():
    oracle = alternating_oracle(5)
    closure = conjugacy_closure(oracle, {Permutation.parse("(1 2 3)").to_images(5)})
    assert len(closure) == 20


def test_norm_table_axioms_and_invariance():
    oracle = symmetric_oracle(4)
    table = bfs_norm(oracle, transposition_generators(4))
    assert list(table.check_axioms()) == []
    assert list(table.check_conjugation_invariance()) == []


def test_oracle_equivalence_with_tr_norm():
    for degree in (3, 4, 5):
        oracle = symmetric_oracle(degree)
        table = bfs_norm(oracle, transposition_generators(degree))
        for t in oracle.elements:
            assert table[t] == tr_norm(Permutation.from_images(t))


def test_audit_domination_self():
    oracle = cyclic_oracle(7)
    table = bfs_norm(oracle, {1})
    constant, witness = audit_domination(table, table)
    assert constant == 1


def test_audit_domination_supp_vs_tr():
    oracle = symmetric_oracle(5)
    tr_table = bfs_norm(oracle, transposition_generators(5))
    supp_table = NormTable(
        oracle,
        {t: len([i for i, q in enumerate(t) if q != i]) for t in oracle.elements},
    )
    constant, witness = audit_domination(tr_table, supp_table)
    assert constant == 2  # attained by any transposition
    assert Permutation.from_images(witness).cycle_type() == (2,)


def test_audit_domination_three_cycle_constants():
    oracle = alternating_oracle(5)
    tr_table = NormTable(
        oracle, {t: tr_norm(Permutation.from_images(t)) for t in oracle.elements})
    n3_table = bfs_norm(oracle, three_cycle_generators(5))
    tr_versus, _ = audit_domination(n3_table, tr_table)
    n3_versus, _ = audit_domination(tr_table, n3_table)
    assert tr_versus <= 2
    assert float(n3_versus) <= 1.5


class TestWordLengthCertificate:
    CARRIERS = {
        "S_4": (symmetric_oracle(4), transposition_generators(4)),
        "S_5": (symmetric_oracle(5), transposition_generators(5)),
        "A_5": (alternating_oracle(5), three_cycle_generators(5)),
    }

    @staticmethod
    def certify(oracle, gens, values):
        images = np.array(oracle.elements, dtype=np.uint8)
        position = np.full(math.factorial(images.shape[1]), -1)
        position[_rank_images(images)] = np.arange(len(images))
        columns = _neighbour_columns(images, generating_set(oracle, gens), position)
        return certify_word_lengths(values, columns, identity=0)

    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_accepts_the_bfs_table(self, carrier):
        oracle, gens = self.CARRIERS[carrier]
        assert self.certify(oracle, gens, np.array(bfs_norm(oracle, gens).norms()))

    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_rejects_the_table_raised_at_one_element(self, carrier):
        # at the identity, at the next element in rank order and at the last
        oracle, gens = self.CARRIERS[carrier]
        norms = np.array(bfs_norm(oracle, gens).norms())
        for at in (0, 1, len(norms) - 1):
            raised = norms.copy()
            raised[at] += 1
            assert not self.certify(oracle, gens, raised), at

    def test_rejects_a_table_that_never_descends(self):
        # Lipschitz everywhere but with no descent at the non-identity elements
        oracle, gens = self.CARRIERS["S_4"]
        assert not self.certify(oracle, gens, np.zeros(24, dtype=np.int64))

    def test_generating_set_is_the_bfs_one(self):
        # closed under inverses, identity removed: the 3-cycles of A_4 come in
        # inverse pairs, and a lone 3-cycle gains its inverse
        oracle = alternating_oracle(4)
        gens = three_cycle_generators(4)
        assert set(generating_set(oracle, gens + [oracle.identity])) == set(gens)
        assert generating_set(oracle, gens[:1]) == sorted(gens[:2], key=oracle.describe)
        # bfs_norm searches that set: one 3-cycle of each inverse pair (a lone
        # 3-cycle does not generate A_4) gives the table of all eight
        half = gens[::2]
        assert bfs_norm(oracle, half).values == \
            bfs_norm(oracle, generating_set(oracle, half)).values == bfs_norm(oracle, gens).values
