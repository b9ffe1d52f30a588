"""Structural guards on suites.py: one first-witness path and one replay policy;
and checks that fail with a witness, under ``python -O`` too."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conecheck
from conecheck import suites
from conecheck.report import RunConfig

SUITES = Path(conecheck.__file__).parent / "suites.py"


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _called_names(node) -> set[str]:
    """The names of every function that node calls: f for f(), and both attr
    and module.attr for module.attr()."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(getattr(func, "id", None) or getattr(func, "attr", None))
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                names.add(f"{func.value.id}.{func.attr}")
    return names


def _branches(tree):
    """The code each conditional chooses between: both branches of every if and
    conditional expression, and after an if whose body returns, the rest of its
    block."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp)):
            yield node.body
            yield node.orelse
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for at, stmt in enumerate(block):
                if isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Return):
                    yield block[at + 1:]


def test_first_witness_is_the_only_early_exit():
    # every check stops at its first failure through _first_witness
    tree = ast.parse(SUITES.read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Break)]
    assert [fn.name for fn in _functions(tree)].count("_first_witness") == 1


def _replay_choices(source):
    """The lines where a conditional outside _batched_cases branches into a
    reference: a reference loop, a first-witness run, or a lazily built tuple
    table of run_norms."""
    tree = ast.parse(source)
    helper = next(fn for fn in _functions(tree) if fn.name == "_batched_cases")
    references = {fn.name for fn in _functions(tree) if fn.name.endswith(("_pairs", "_cases"))}
    references |= {"_first_witness", "verify_contraction_conditions", "norm_table", "word_table"}
    inside = set(map(id, ast.walk(helper)))
    return [stmt.lineno for branch in _branches(tree)
            for stmt in (branch if isinstance(branch, list) else [branch])
            if id(stmt) not in inside and _called_names(stmt) & references]


def test_batched_cases_is_the_only_replay_choice():
    # Only _batched_cases chooses between a batched kernel's verdict and its
    # reference loop: it alone turns a verdict into passing cases, and no other
    # conditional branches into a reference loop or a first-witness run, or
    # builds a reference table.
    tree = ast.parse(SUITES.read_text())
    helper = next(fn for fn in _functions(tree) if fn.name == "_batched_cases")
    assert [fn.name for fn in _functions(tree) if "itertools.repeat" in _called_names(fn)] \
        == ["_batched_cases"]
    assert {"itertools.repeat", "_first_witness"} <= _called_names(helper)
    assert not _replay_choices(SUITES.read_text())


@pytest.mark.parametrize("branch", [
    "words = word_table(5) if not held else None",
    "if not held:\n        norms = norm_table(5)",
    "if held:\n        return\n    cases = sandwich_cases()",
], ids=["conditional_expression", "if_body", "after_early_return"])
def test_replay_guard_catches_a_reference_built_in_a_branch(branch):
    # a kernel that builds its reference table or loop behind its own verdict,
    # outside _batched_cases, fails the guard above
    source = SUITES.read_text() + f"\n\ndef chooses(held):\n    {branch}\n"
    assert len(_replay_choices(source)) == 1


def test_norms_evaluates_supp_and_tr_once_per_element(monkeypatch):
    # run_norms tables supp and tr once per element of each group whose checks
    # read them by image tuple; under RunConfig.small() those are S_5 (120),
    # A_5 (60) and S_4 (24).  A_4 is only walked for ambient stability.  The
    # image-array checks re-run their oracle samples: in S_5 every second
    # element (60) and the first element of each cycle type whose first rank
    # is odd (6), in A_5 every element (60): 120 + 60 + 24 + 66 + 60 = 330.  Reading the tables again per pair made 86 760 supp_norm and 58 080
    # tr_norm calls.
    counts = dict.fromkeys(("supp_norm", "tr_norm"), 0)
    for name in counts:
        norm = getattr(suites, name)

        def counted(sigma, norm=norm, name=name):
            counts[name] += 1
            return norm(sigma)

        monkeypatch.setattr(suites, name, counted)
    rows = suites.run_norms(RunConfig.small())
    assert all(row.status == "pass" for row in rows)
    assert counts == {"supp_norm": 330, "tr_norm": 330}


@pytest.mark.parametrize("cfg, built", [
    (RunConfig(norm_degree=8, alternating_degree=7), ["A_5", "A_6", "S_4", "S_5"]),
    (RunConfig(), ["A_5", "S_4", "S_5"]),
    (RunConfig.small(), ["A_4", "A_5", "S_4", "S_5"]),
], ids=["exhaustive-degrees", "default", "small"])
def test_norms_builds_each_tuple_oracle_once(monkeypatch, cfg, built):
    # S_norm_degree and A_alternating_degree run on their image arrays alone,
    # so a passing run builds tuple oracles only for the small groups:
    # S_min(5, d), S_4, A_min(5, m) and A_max(m - 1, 4).  Keying the cache by
    # group(5) and group(5, False) apart built S_4, S_5 and A_5 twice.
    from conecheck import wordnorm

    calls = []
    for name in ("symmetric_oracle", "alternating_oracle"):
        def recorded(n, build=getattr(wordnorm, name), letter=name[0].upper()):
            calls.append(f"{letter}_{n}")
            return build(n)

        monkeypatch.setattr(wordnorm, name, recorded)
    rows = suites.run_norms(cfg)
    assert all(row.status == "pass" for row in rows)
    assert sorted(calls) == built


def test_fixed_size_exact_checks_rerun_only_their_oracle_samples(monkeypatch):
    # Under RunConfig.small() the scalar loops made 89 440 arc_identity_exact,
    # 2 580 circle_to_zmod (2 080 round trips and the grid's 500-angle
    # cross-check) and 26 884 Permutation.from_cycles calls (four per
    # pair-identity tuple, four for the fixed checks).  Now each oracle re-runs
    # ORACLE_SAMPLES cases, the pair identity's ORACLE_SAMPLES + 1 evenly
    # spaced tuples.
    from conecheck import coneprobe
    from conecheck.perms import Permutation

    counts = dict.fromkeys(("arc_identity_exact", "circle_to_zmod", "from_cycles"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("arc_identity_exact", "circle_to_zmod"):
        monkeypatch.setattr(coneprobe, name, counted(name, getattr(coneprobe, name)))
    from_cycles = Permutation.__dict__["from_cycles"].__func__
    monkeypatch.setattr(Permutation, "from_cycles",
                        classmethod(counted("from_cycles", from_cycles)))
    rows = suites.run_norms(RunConfig.small()) + suites.run_coneprobe(RunConfig.small())
    assert all(row.status == "pass" for row in rows)
    samples = suites.ORACLE_SAMPLES
    assert counts["arc_identity_exact"] <= samples
    assert counts["circle_to_zmod"] <= samples + 500
    assert counts["from_cycles"] <= 4 * (samples + 1) + 4


def test_then_right_to_left_fails_the_pair_identity_as_the_scalar_loop(monkeypatch):
    # The image arrays hold under this fault; the Permutation oracle disagrees,
    # so the scalar loop replays and fails at its first tuple, as it always did.
    from conecheck.perms import Permutation

    then = Permutation.then
    monkeypatch.setattr(Permutation, "then", lambda self, other: then(other, self))
    row = next(r for r in suites.run_norms(RunConfig.small())
               if r.check_id == "norms.pair_transposition_identity")
    assert (row.status, row.sample_size, row.witness) == \
        ("fail", 1, "x1=1 y1=2 x2=3 y2=4 z=5")


def test_norms_enumerates_no_sorted_permutations():
    # symmetric_oracle and every S_n loop take permutations() in its own
    # lexicographic order
    for path in SUITES.parent.glob("*.py"):
        assert "sorted(permutations" not in path.read_text().replace("itertools.", "")


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check resting on one stops checking
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SUITES.parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert not asserts


# Runs one suite at RunConfig.small() under one fault and prints its rows.
_FAULTED_SUITE = """
import json, sys
from conecheck import suites, wordnorm
from conecheck.perms import Permutation, _invert_images
from conecheck.report import RunConfig

fault, suite = sys.argv[1:]
then = Permutation.then
from_images = Permutation.__dict__["from_images"].__func__
bfs_norm = wordnorm.bfs_norm


def bumped(oracle, gens):
    # the S_4 transposition-norm table with the value of (1 2) raised by 5
    table = bfs_norm(oracle, gens)
    if oracle.name == "S_4":
        table.values[(1, 0, 2, 3)] += 5
    return table


if fault == "then right to left":
    Permutation.then = lambda self, other: then(other, self)
elif fault == "inverse returns self":
    Permutation.inverse = lambda self: self
elif fault == "from_images reads preimages":
    Permutation.from_images = classmethod(
        lambda cls, images: from_images(cls, _invert_images(tuple(images))))
elif fault == "bumped S_4 table":
    wordnorm.bfs_norm = bumped
rows = getattr(suites, "run_" + suite)(RunConfig.small())
print(json.dumps({r.check_id: [r.status, r.sample_size, r.witness] for r in rows}))
"""


def _faulted_rows(fault, suite, flags=()):
    env = {**os.environ, "PYTHONPATH": str(SUITES.parent.parent)}
    done = subprocess.run([sys.executable, *flags, "-c", _FAULTED_SUITE, fault, suite],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_bumped_norm_table_fails_table_axioms_with_a_witness(flags):
    # The axiom checks yield a witness per violation instead of asserting, so the
    # row fails with one, and python -O cannot strip the check.
    status, _, witness = _faulted_rows("bumped S_4 table", "norms", flags)["norms.table_axioms"]
    assert status == "fail"
    assert witness == "triangle at (1 3), (1 3 2)"


def test_table_axioms_counts_every_case_it_examines():
    # positivity and symmetry at the 24 elements of S_4, the triangle inequality
    # and conjugation invariance at its 576 pairs, and the five Z/5 norms
    row = next(r for r in suites.run_norms(RunConfig.small()) if r.check_id == "norms.table_axioms")
    assert row.sample_size == 24 + 2 * 576 + 5 == 1181


@pytest.mark.parametrize("fault", ["then right to left", "inverse returns self",
                                   "from_images reads preimages"])
def test_broken_permutation_op_fails_covering_rows_with_witnesses(fault):
    # Witnesses are verified once, where they are used: the Ore check recomposes
    # [b, c], and express_as_conjugates' recomposition failure becomes the
    # certificate case's witness.  No assert ends the suite, with or without -O.
    rows = _faulted_rows(fault, "covering")
    assert _faulted_rows(fault, "covering", ("-O",)) == rows
    assert list(rows) == ["covering.brenner", "covering.hypothesis_gate",
                          "covering.ore_witnesses", "covering.conjugate_certificates",
                          "covering.class_closure"]
    for check_id in ("covering.ore_witnesses", "covering.conjugate_certificates"):
        status, _, witness = rows[check_id]
        assert status == "fail" and witness
    assert rows["covering.conjugate_certificates"][2].endswith(
        ": certificate failed recomposition")


@pytest.mark.parametrize("norm, check_id, witness", [
    ("tr_norm", "norms.domination", "tr/n3 = 3 at (3 4 5)"),
    ("supp_norm", "norms.domination", "supp/tr = 3 at (4 5)"),
    ("supp_norm", "norms.closure_transpositions", "(3 4)"),
])
def test_norm_off_by_one_fails_with_a_witness(monkeypatch, norm, check_id, witness):
    # one more than the norm off the identity: domination names the element that
    # attains the out-of-bound constant, and the closure check the first element
    # of the symmetric difference
    exact = getattr(suites, norm)
    monkeypatch.setattr(suites, norm, lambda sigma: exact(sigma) + (not sigma.is_identity()))
    row = next(r for r in suites.run_norms(RunConfig.small()) if r.check_id == check_id)
    assert row.status == "fail"
    assert row.witness == witness


@pytest.mark.parametrize("norm, bump, check_id, witness", [
    # tr one high where sigma(1) = 2: not a class function, and not a metric
    ("tr_norm", lambda sigma: sigma(1) == 2, "norms.conjugation_invariance_s5",
     "(4 5) vs (1 4 2 5 3)"),
    ("tr_norm", lambda sigma: sigma(1) == 2, "norms.metric_axioms_s5", "(1 3) * (2 3)"),
    # supp two high on 3-cycles: a product of two transpositions outgrows them
    ("supp_norm", lambda sigma: 2 * (sigma.cycle_type() == (3,)), "norms.metric_axioms_s5",
     "(4 5) * (3 4)"),
], ids=["conjugation_invariance_tr", "metric_axioms_tr", "metric_axioms_supp"])
def test_a_norm_fault_fails_the_s5_table_checks(monkeypatch, norm, bump, check_id, witness):
    exact = getattr(suites, norm)
    monkeypatch.setattr(suites, norm, lambda sigma: exact(sigma) + bump(sigma))
    row = next(r for r in suites.run_norms(RunConfig.small()) if r.check_id == check_id)
    assert (row.status, row.sample_size, row.witness) == ("fail", 120 ** 2, witness)


@pytest.mark.parametrize("degree, cycle_type, witness", [
    (5, (3,), "(3 4 5)"),
    # evenly spaced rows of S_7 hold no transposition, and of S_8 no 3-cycle:
    # the oracle also samples the first element of every cycle type
    (7, (2,), "(6 7)"),
    (8, (3,), "(6 7 8)"),
])
def test_tr_norm_off_on_one_cycle_type_fails_the_array_checks_as_the_tuple_loops(
        monkeypatch, degree, cycle_type, witness):
    # The image arrays hold under this fault; the sampled tr_norm disagrees on
    # that type, so the tuple loops replay and give the rows they gave before
    # the arrays (the sandwich still holds with tr one higher on these types).
    exact = suites.tr_norm
    monkeypatch.setattr(suites, "tr_norm",
                        lambda sigma: exact(sigma) + (sigma.cycle_type() == cycle_type))
    cfg = RunConfig.small()
    cfg.norm_degree = degree
    rows = {r.check_id: (r.status, r.sample_size, r.witness) for r in suites.run_norms(cfg)}
    order = math.factorial(degree)
    assert rows["norms.sandwich_s7"] == ("pass", order, None)
    assert rows["norms.bfs_tr_agreement"] == ("fail", order, witness)
    if cycle_type == (3,):
        assert rows["norms.alternating_a6"] == ("fail", 60, "(3 4 5): tr=3 n3=1")


def test_corrupt_neighbour_column_fails_after_the_passing_replay(monkeypatch):
    # The first neighbour column of each group shifted by one row: the
    # certificate fails, the tuple loops replay and pass, and the sampled
    # oracle.multiply disagreement is the one failing case.
    import numpy as np

    columns = suites._neighbour_columns

    def shifted(images, gens, position):
        for k, column in enumerate(columns(images, gens, position)):
            yield np.roll(column, 1) if k == 0 else column

    monkeypatch.setattr(suites, "_neighbour_columns", shifted)
    rows = {r.check_id: (r.status, r.sample_size, r.witness)
            for r in suites.run_norms(RunConfig.small())}
    assert rows["norms.sandwich_s7"] == ("pass", 120, None)
    assert rows["norms.bfs_tr_agreement"] == \
        ("fail", 120, "neighbour columns disagree at () times (1 2)")
    assert rows["norms.alternating_a6"] == \
        ("fail", 60, "neighbour columns disagree at () times (1 2 3)")
    assert rows["norms.three_cycle_oracle"] == \
        ("fail", 72, "neighbour columns disagree at () times (1 2 3)")


@pytest.mark.parametrize("suite, cfg", [
    *[(name, RunConfig.small()) for name in RunConfig.small().suites],
    ("norms", RunConfig(norm_degree=8, alternating_degree=7)),
    # the default degrees at the acceptance_scaled workload's sample counts:
    # SO(4)..SO(12) blocks, exhaustive S_6 and S_30 pairs
    ("matnorm", RunConfig(matrix_pairs=166)),
    ("cutting", RunConfig(random_pairs=16_666)),
    # the exhaustive workload's covering degrees: A_8 classes, Ore stacks to A_7
    ("covering", RunConfig(brenner_degrees=(5, 6, 7, 8), ore_degrees=(5, 6, 7))),
], ids=[*RunConfig.small().suites, "norms-exhaustive", "matnorm-acceptance",
        "cutting-acceptance", "covering-exhaustive"])
def test_no_batched_kernel_replays_on_a_passing_run(monkeypatch, suite, cfg):
    # A batched kernel that fails falsely is replayed by its reference loop, and
    # the row passes as if nothing happened, at the reference's cost.  On these
    # configs no reference loop may be advanced at all.
    advanced = []
    batched = suites._batched_cases

    def watched(count, held, oracle, reference):
        def replay():
            for case in reference:
                advanced.append(getattr(reference, "__qualname__", type(reference).__name__))
                yield case
        return batched(count, held, oracle, replay())

    monkeypatch.setattr(suites, "_batched_cases", watched)
    rows = getattr(suites, "run_" + suite)(cfg)
    assert all(row.status == "pass" for row in rows)
    assert not advanced


def test_norms_suite_loads_no_masked_arrays():
    # np.union1d imports numpy.ma: drawing the norms oracle's rows with it
    # raised peak RSS by 1.2 MB on the quick workload and 1.6 MB on
    # acceptance_scaled
    code = ("import sys\nfrom conecheck import suites\nfrom conecheck.report import RunConfig\n"
            "suites.run_norms(RunConfig())\nprint('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SUITES.parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout.split() == ["False"], done.stderr


def _gate_accepts(monkeypatch):
    # brenner_check returns None where it should raise HypothesisUnmetError
    check = suites.brenner_check

    def lenient(sigma, n):
        try:
            return check(sigma, n)
        except suites.HypothesisUnmetError:
            return None
    monkeypatch.setattr(suites, "brenner_check", lenient)


def _class_not_closed(monkeypatch):
    from conecheck.covering import ConjugacyClass
    monkeypatch.setattr(ConjugacyClass, "closed_under_conjugation", lambda self, gens: False)


def _torsion_row_off(monkeypatch):
    # ||x_3|| reported as 4 in base 2
    probe = suites.intnorm.torsion_probe

    def bumped(n_values, base=2, exact_cutoff=5):
        table = probe(n_values, base, exact_cutoff)
        if base == 2:
            table["rows"][2]["norm_x_n"] += 1
        return table
    monkeypatch.setattr(suites.intnorm, "torsion_probe", bumped)


def _identity_projection_expands(monkeypatch):
    # one non-expansive violation for the identity projection, which fails (iii)
    verify = suites.products.verify_contraction_conditions

    def expansive(*args):
        report = verify(*args)
        if report["norm-decrease"]["violations"]:
            report["non-expansive"]["violations"] += 1
        return report
    monkeypatch.setattr(suites.products, "verify_contraction_conditions", expansive)


def _homomorphism_with_defect(monkeypatch):
    monkeypatch.setattr(suites.quasimorphism, "estimate_defect", lambda psi, pairs: 0.5)


def _expected_k_halved(monkeypatch):
    # each family's K exceeds half its expected constant
    check = suites.coneprobe.check_sequence_contraction
    monkeypatch.setattr(suites.coneprobe, "check_sequence_contraction",
                        lambda family, stages, samples, seed, k: check(
                            family, stages, samples, seed, k / 2))


def _second_run_differs(monkeypatch):
    # the norms suite reports how often it has run: 1 in the reference run, 2
    # in the two-process run, whichever process takes it (a forked worker
    # inherits the first run's count)
    from conecheck.report import CheckResult
    runs = []

    def rows(cfg):
        runs.append(cfg)
        return [CheckResult.from_outcome("norms.same", "same on every run", None, 1),
                CheckResult.from_outcome("norms.counted", "counts the runs", None, len(runs))]
    monkeypatch.setitem(suites.SUITES, "norms", rows)


def _prefix_projection_is_the_identity(monkeypatch):
    monkeypatch.setattr(suites.products.FreeProduct, "prefix_project", lambda self, a: a)


def _least_column_kept_one_high(monkeypatch):
    # the first entry of the collapsed coordinate rows one high
    collapse = suites.products.collapse_least

    def shifted(coords):
        out = collapse(coords)
        out[0, 0] += 1
        return out
    monkeypatch.setattr(suites.products, "collapse_least", shifted)


def _composition_right_to_left(monkeypatch):
    # then(self, other) applies other first
    from conecheck.perms import Permutation
    then = Permutation.then
    monkeypatch.setattr(Permutation, "then", lambda self, other: then(other, self))


_WITNESSED_FAULTS = [
    (_gate_accepts, "covering", "covering.hypothesis_gate",
     "brenner_check accepted (1 2 3) in A_5"),
    (_class_not_closed, "covering", "covering.class_closure",
     "the class of (1 2)(3 4) in S_6"),
    (_torsion_row_off, "intnorm", "intnorm.torsion", "base 2 n=3: (4, 1)"),
    (_identity_projection_expands, "products", "products.negative_control",
     "non-expansive violation count 1"),
    (_homomorphism_with_defect, "norms", "norms.quasimorphism_lower_bound",
     "defect 0.5 of a homomorphism"),
    (_expected_k_halved, "coneprobe", "coneprobe.sequence_contraction",
     "upper-triangular: K = 1 above 0.5"),
    (_second_run_differs, "determinism", "determinism.byte_identical",
     "reports differ at norms.counted"),
    (_prefix_projection_is_the_identity, "products", "products.free_product_conditions", "(1:1)"),
    (_prefix_projection_is_the_identity, "products", "products.prefix_projection", "(1:1)"),
    (_least_column_kept_one_high, "products", "products.direct_sum_conditions",
     "DirectSum distance disagrees at 2@3 | 7@8"),
    (_composition_right_to_left, "norms", "norms.composition_convention", "(1 2 3)"),
]


@pytest.mark.parametrize("fault, suite, check_id, witness", _WITNESSED_FAULTS,
                         ids=[case[2] for case in _WITNESSED_FAULTS])
def test_a_failing_row_names_its_witness(monkeypatch, fault, suite, check_id, witness):
    # A row fails exactly when it has a witness: each of these checks once
    # failed through a separate pass flag, with witness null.
    fault(monkeypatch)
    row = next(r for r in getattr(suites, "run_" + suite)(RunConfig.small())
               if r.check_id == check_id)
    assert (row.status, row.witness) == ("fail", witness)


def _lower_bound_one_high(monkeypatch):
    lower = suites.intnorm.lower_bound_xn
    monkeypatch.setattr(suites.intnorm, "lower_bound_xn", lambda n, base=2: lower(n, base) + 1)


def _one_high_at_x(name, n, field):
    """Fault: intnorm's `name` reports `field` one high at x_n in base 2."""
    def fault(monkeypatch):
        real, x = getattr(suites.intnorm, name), suites.intnorm.FactorialGenerators().x(n)

        def bumped(y, gens, **kwargs):
            result = real(y, gens, **kwargs)
            if (y, gens.base) != (x, 2):
                return result
            return dataclasses.replace(result, **{field: getattr(result, field) + 1})
        monkeypatch.setattr(suites.intnorm, name, bumped)
    return fault


def _lower_bound_fails_at_2(monkeypatch):
    # lower_bound_xn's last exact step fails at n = 2
    lower = suites.intnorm.lower_bound_xn

    def failing(n, base=2):
        if n == 2:
            raise suites.intnorm.ArgumentCheckFailedError("ceiling division does not give n")
        return lower(n, base)
    monkeypatch.setattr(suites.intnorm, "lower_bound_xn", failing)


def _certificate_fails_at(x):
    """Fault: norm_exact's certificate for +-x gains a term 1, and norm_exact
    raises on it, as it does on any certificate that fails its own check."""
    def fault(monkeypatch):
        real = suites.intnorm.norm_exact

        def raising(y, gens, **kwargs):
            result = real(y, gens, **kwargs)
            if abs(y) != x:
                return result
            bad = dataclasses.replace(result, certificate=result.certificate + (1,))
            raise suites.intnorm.ArgumentCheckFailedError(bad.check(y))
        monkeypatch.setattr(suites.intnorm, "norm_exact", raising)
    return fault


@pytest.mark.parametrize("fault, check_id, witness, probe_witness", [
    (_lower_bound_one_high, "intnorm.sandwich", "x_1: upper=1 lower=2",
     "exhaustive search (1) disagrees with the lower bound (2)"),
    (_one_high_at_x("norm_exact", 3, "value"), "intnorm.exact_small",
     "x_3: certificate [8, 8, 8] for 24 with value 4",
     "exhaustive search (4) disagrees with the lower bound (3)"),
    (_one_high_at_x("norm_upper", 4, "best_upper"), "intnorm.sandwich", "x_4: upper=5 lower=4",
     "upper construction (5) does not meet the lower bound (4)"),
    (_lower_bound_fails_at_2, "intnorm.sandwich", "x_2: ceiling division does not give n",
     "ceiling division does not give n"),
    (_certificate_fails_at(24), "intnorm.exact_small",
     "x_3: certificate [8, 8, 8, 1] for 24 with value 3",
     "certificate [8, 8, 8, 1] for 24 with value 3"),
    # inside axioms_window's [-2w, 2w] and no x_n, so the torsion probe passes
    (_certificate_fails_at(37), "intnorm.axioms_window",
     "certificate [-48, 8, 2, 1, 1] for -37 with value 4", None),
], ids=["lower_bound_xn", "norm_exact_at_x3", "norm_upper_at_x4", "lower_bound_fails_at_2",
        "norm_exact_fails_at_x3", "norm_exact_fails_at_37"])
def test_a_wrong_norm_of_x_n_fails_rows_instead_of_raising(
        monkeypatch, fault, check_id, witness, probe_witness):
    # norm_xn raises ArgumentCheckFailedError when its search or upper
    # construction misses the lower bound, and so do norm_exact, norm_upper
    # and lower_bound_xn when one of their exact steps fails; each failing row
    # takes the message as its witness, and every intnorm row still reaches
    # the report
    fault(monkeypatch)
    rows = {r.check_id: r for r in suites.run_intnorm(RunConfig.small())}
    assert len(rows) == 5
    assert (rows[check_id].status, rows[check_id].witness) == ("fail", witness)
    torsion = rows["intnorm.torsion"]
    assert (torsion.status, torsion.witness) == \
        ("pass" if probe_witness is None else "fail", probe_witness)
    assert torsion.sample_size == RunConfig.small().intnorm_sandwich_max + 4


def _padded_at_37(pairs):
    """Fault: norm_exact returns, at +-37, a certified sum longer by 2 * pairs terms."""
    def fault(monkeypatch):
        exact = suites.intnorm.norm_exact

        def padded(x, gens, depth_cap=16):
            result = exact(x, gens, depth_cap)
            if abs(x) != 37:
                return result
            cert = result.certificate + (1, -1) * pairs
            return suites.intnorm.IntNormResult(len(cert), cert, result.method, result.window)
        monkeypatch.setattr(suites.intnorm, "norm_exact", padded)
    return fault


def _bfs_cut_at_the_largest_member_below_w(monkeypatch):
    # RunConfig.small() has w = 40: steps +-1, +-2, +-8 only, over [-48, 48].
    # window_word_norm runs the one BFS through quasimorphism's binding
    bfs = suites.quasimorphism.bfs
    monkeypatch.setattr(suites.quasimorphism, "bfs", lambda starts, step: bfs(
        starts, lambda y: [z for z in step(y) if abs(z - y) <= 8 and abs(z) <= 48]))


@pytest.mark.parametrize("fault, witness", [
    # ||37|| = 4 (48 - 8 - 2 - 1); a table value of 6 is certified but not least
    (_padded_at_37(1), "-37"),
    # a table value of 14 admits 645120 = 2^7 7! to window_for(40, 14)
    (_padded_at_37(5), "BFS half-width 645160 exceeds 2^16"),
    # -40 = -48 + 8 has norm 2, but needs 5 steps of -8 without 48
    (_bfs_cut_at_the_largest_member_below_w, "-40"),
], ids=["longer_sum_at_37", "interval_past_the_bound", "bfs_cut_at_8"])
def test_window_stability_fails_with_its_witness(monkeypatch, fault, witness):
    fault(monkeypatch)
    row = suites.run_intnorm(RunConfig.small())[-1]
    assert (row.check_id, row.status, row.witness) == ("intnorm.window_stability", "fail", witness)


def test_window_stability_makes_no_norm_exact_call(monkeypatch):
    # its reference is the BFS; axioms_window's searches, which come just
    # before it, are the run's last
    cfg, calls = RunConfig.small(), []
    exact = suites.intnorm.norm_exact
    monkeypatch.setattr(suites.intnorm, "norm_exact", lambda x, gens, depth_cap=16: (
        calls.append((x, depth_cap)) or exact(x, gens, depth_cap)))
    rows = suites.run_intnorm(cfg)
    w = cfg.intnorm_axiom_window
    assert [r.check_id for r in rows[-2:]] == ["intnorm.axioms_window", "intnorm.window_stability"]
    depth = suites.AXIOMS_WINDOW_DEPTH
    assert calls[-(4 * w + 1):] == [(x, depth) for x in range(-2 * w, 2 * w + 1)]


def test_axioms_window_triangle_fails_at_the_first_product_pair(monkeypatch):
    # A certified sum two terms longer at +-70, outside [-w, w] for w = 40, so
    # only the triangle inequality sees it.  The array comparison names the
    # pair that the loop over itertools.product(range(-w, w + 1), repeat=2)
    # meets first.
    import itertools

    exact = suites.intnorm.norm_exact

    def padded(x, gens, depth_cap=16):
        result = exact(x, gens, depth_cap)
        if abs(x) != 70:
            return result
        cert = result.certificate + (1, -1)
        return suites.intnorm.IntNormResult(len(cert), cert, result.method, result.window)

    monkeypatch.setattr(suites.intnorm, "norm_exact", padded)
    cfg = RunConfig.small()
    w = cfg.intnorm_axiom_window
    gens = suites.intnorm.FactorialGenerators(base=2, max_index=suites.intnorm.MAX_INTNORM_INDEX)
    table = {x: padded(x, gens, suites.AXIOMS_WINDOW_DEPTH).value for x in range(-2 * w, 2 * w + 1)}
    first = next(f"triangle at {x},{y}" for x, y in itertools.product(range(-w, w + 1), repeat=2)
                 if table[x + y] > table[x] + table[y])
    row = next(r for r in suites.run_intnorm(cfg) if r.check_id == "intnorm.axioms_window")
    assert (row.status, row.witness, row.sample_size) == ("fail", first, (2 * w + 1) ** 2)
    assert first == "triangle at -40,-30"


def test_matrix_oracle_pairs_draw_from_streams_of_their_own(monkeypatch):
    # _stacked_cases drew each block's oracle pair from (seed, n): at n = 7..12
    # the stream of the split, displacement, direct-sum, coneprobe, Brenner and
    # Ore oracles, and at n = 2..8 of coneprobe's stage samples
    import sys

    import numpy as np

    real, started = np.random.default_rng, []

    def recorded(*args, **kwargs):
        rng = real(*args, **kwargs)
        state = rng.bit_generator.state["state"]
        pair = sys._getframe(1).f_code.co_name == "_stacked_cases"
        check = sys._getframe(2).f_code.co_name if pair else None
        started.append((pair, (state["state"], state["inc"]), check))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recorded)
    cfg = RunConfig.small()
    cfg.so_max_n = 12
    cfg.validate()
    for name in ("cutting", "covering", "matnorm", "products", "coneprobe"):
        assert all(row.status == "pass" for row in getattr(suites, "run_" + name)(cfg))
    pairs = {state for pair, state, _ in started if pair}
    others = {state for pair, state, _ in started if not pair}
    assert len(pairs) >= 12 and len(others) >= 12
    assert not pairs & others
    # no two matnorm blocks, in one check or in two, start their oracle in one
    # state: triangular's integer and rational blocks meet at n = 2..6, and
    # SPD's and SO(n)'s blocks meet triangular's at n = 2..12
    blocks = [state for pair, state, _ in started if pair]
    assert len(blocks) == (cfg.triangular_max_n + min(cfg.triangular_max_n, 6) - 1
                           + cfg.spd_max_n - 1 + cfg.so_max_n - cfg.so_min_n + 1)
    assert len(set(blocks)) == len(blocks)
    # and every block runs through run_matnorm's one block loop
    assert {check for pair, _, check in started if pair} == {"blocks"}
