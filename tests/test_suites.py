"""Structural guards on suites.py: one first-witness path and one replay policy."""

import ast
from pathlib import Path

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


def test_batched_cases_is_the_only_replay_choice():
    # Only _batched_cases chooses between a batched kernel's verdict and its
    # reference loop: it alone turns a verdict into passing cases, and no other
    # conditional branches into a reference loop or a first-witness run.
    tree = ast.parse(SUITES.read_text())
    helper = next(fn for fn in _functions(tree) if fn.name == "_batched_cases")
    assert [fn.name for fn in _functions(tree) if "itertools.repeat" in _called_names(fn)] \
        == ["_batched_cases"]
    assert {"itertools.repeat", "_first_witness"} <= _called_names(helper)
    references = {fn.name for fn in _functions(tree) if fn.name.endswith(("_pairs", "_cases"))}
    references |= {"_first_witness", "verify_contraction_conditions"}
    inside = set(map(id, ast.walk(helper)))
    choices = [stmt.lineno for branch in _branches(tree)
               for stmt in (branch if isinstance(branch, list) else [branch])
               if id(stmt) not in inside and _called_names(stmt) & references]
    assert not choices


def test_norms_evaluates_supp_and_tr_once_per_element(monkeypatch):
    # run_norms tables supp and tr once per element of each group it enumerates,
    # and reads the table by image tuple; under RunConfig.small() those are
    # S_5 (120), A_5 (60), A_4 (12) and S_4 (24).  Reading them again per pair
    # made 86 760 supp_norm and 58 080 tr_norm calls.
    counts = dict.fromkeys(("supp_norm", "tr_norm"), 0)
    for name in counts:
        norm = getattr(suites, name)

        def counted(sigma, norm=norm, name=name):
            counts[name] += 1
            return norm(sigma)

        monkeypatch.setattr(suites, name, counted)
    rows = suites.run_norms(RunConfig.small())
    assert all(row.status == "pass" for row in rows)
    assert counts == {"supp_norm": 216, "tr_norm": 216}


def test_norms_enumerates_no_sorted_permutations():
    # symmetric_oracle and every S_n loop take permutations() in its own
    # lexicographic order
    for path in SUITES.parent.glob("*.py"):
        assert "sorted(permutations" not in path.read_text().replace("itertools.", "")
