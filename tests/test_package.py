"""Package-wide lint: no function that nothing in the package calls, no
dataclass field that nothing reads, no private helper named in the README
that the package does not define, and the README's count of config fields."""

import ast
import dataclasses
import re
from collections import defaultdict
from pathlib import Path

import pytest

import conecheck
from conecheck.report import RunConfig

PACKAGE = Path(conecheck.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _definitions(tree):
    """Every module-level function and every method, with its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            yield from ((item, node.name) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _is_command(fn) -> bool:
    # @main.command(...) and @click.group()
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) in ("command", "group")
               for d in fn.decorator_list)


def _unreferenced(sources: dict) -> list[str]:
    """The functions and methods whose name no Name or Attribute node outside
    their own body mentions, save dunders, click commands and the public API
    (conecheck.__all__ and the methods of the classes it names)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    mentions = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                mentions[getattr(node, "id", None) or node.attr].append(id(node))
    unused = []
    for module, tree in trees.items():
        for fn, owner in _definitions(tree):
            if (fn.name.startswith("__") and fn.name.endswith("__") or _is_command(fn)
                    or {fn.name, owner} & set(conecheck.__all__)):
                continue
            inside = set(map(id, ast.walk(fn)))
            if all(node in inside for node in mentions[fn.name]):
                unused.append(f"{module}:{owner + '.' if owner else ''}{fn.name}")
    return unused


def _package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_function_is_referenced_in_the_package():
    # a helper that only tests reach verifies nothing the report claims
    assert _unreferenced(_package_sources()) == []


def test_unreferenced_guard_catches_an_appended_function():
    # a call from its own body does not count as a reference
    sources = _package_sources()
    sources["perms.py"] += "\n\ndef orphan(n):\n    return orphan(n - 1) if n else 0\n"
    assert _unreferenced(sources) == ["perms.py:orphan"]


def _is_dataclass(cls) -> bool:
    # @dataclass, @dataclass(...) and the same through the dataclasses module
    return any(getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass"
               for d in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list))


def _module_names(tree, sources: dict) -> set[str]:
    """The package's modules and every name an import binds in this file."""
    names = {Path(name).stem for name in sources}
    names.update((alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names)
    return names


def _unread_fields(sources: dict) -> list[str]:
    """The dataclass fields whose name no attribute read in the package
    mentions, their own class's methods included.  module.name is a read of a
    module's name, not of a field: wordnorm.generating_set(...) once hid an
    unread NormTable.generating_set field from this list."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        modules = _module_names(tree, sources)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) not in modules)
    return [f"{module}:{cls.name}.{item.target.id}"
            for module, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and item.target.id not in read]


def test_every_dataclass_field_is_read_in_the_package():
    # a field nothing reads is state that every constructor call must still fill
    assert _unread_fields(_package_sources()) == []


def test_unread_field_guard_catches_an_appended_field():
    # a field set in __init__ but never read back is caught, the other one not
    sources = _package_sources()
    sources["perms.py"] += ("\n\n@dataclass(frozen=True)\nclass Orphan:\n    kept: int\n"
                            "    unread: int\n\n    def twice(self):\n        return 2 * self.kept\n")
    assert _unread_fields(sources) == ["perms.py:Orphan.unread"]


@pytest.mark.parametrize("module, call", [
    ("wordnorm", "bfs_norm"),  # a package module, imported by suites.py
    ("np", "asarray"),  # a name that suites.py binds by import
])
def test_unread_field_guard_ignores_a_module_function_of_the_same_name(module, call):
    # a field read only as module.same_name(...) is still unread
    sources = _package_sources()
    sources["suites.py"] += (f"\n\n@dataclass\nclass Orphan:\n    {call}: int\n\n\n"
                             f"def orphan_call():\n    return {module}.{call}(0)\n")
    assert _unread_fields(sources) == [f"suites.py:Orphan.{call}"]


def test_readme_names_only_defined_private_helpers():
    # a rename must not leave the README citing a helper that is gone
    nodes = [node for text in _package_sources().values() for node in ast.walk(ast.parse(text))]
    defined = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    cited = set(re.findall(r"`(?:\w+\.)*(_[A-Za-z]\w*)", README.read_text()))
    assert sorted(cited - defined) == []


def test_readme_counts_the_runconfig_fields():
    # the count has changed with every retired field
    cited = re.search(r"Keys\s+mirror\s+the\s+(\d+)\s+`RunConfig`\s+fields", README.read_text())
    assert cited and int(cited.group(1)) == len(dataclasses.fields(RunConfig))
