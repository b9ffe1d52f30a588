"""Structural guards on suites.py: one first-witness path and one replay policy."""

import ast
from pathlib import Path

import conecheck

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
