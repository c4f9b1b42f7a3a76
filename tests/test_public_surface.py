"""The library's public surface is what its callers use.

Every public top-level function or class in ``src/maniplex`` (apart from
``__init__.py``) must be read somewhere in ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition: as a name, an attribute or an
import.  Code that only the tests call lives in ``tests/oracles.py``.
Methods are out of scope.

Every import in the library sits at module level, so the import graph of
its modules has no cycle that an import inside a function works round.
"""

from __future__ import annotations

import ast
from pathlib import Path

import maniplex
from maniplex import constructions, formats

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "maniplex").glob("*.py") if p.name != "__init__.py")
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _names_read(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The names ``tree`` reads as a name, an attribute or an import,
    outside the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    unused = [f"{path.stem}.{node.name}" for path in LIBRARY for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and not any(node.name in _names_read(tree, node) for tree in trees.values())]
    assert not unused, f"public names with no caller outside the tests: {unused}"


def test_every_import_in_the_library_is_at_module_level():
    nested = [f"{path.stem}:{node.lineno}" for path in LIBRARY
              for top in ast.parse(path.read_text(encoding="utf-8")).body
              for node in ast.walk(top)
              if node is not top and isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports below module level: {nested}"


def test_map_spec_resolves_where_it_did():
    assert maniplex.MapSpec is constructions.MapSpec is formats.MapSpec
