"""No ``src/`` module imports a name at module level that it never uses.

A plain ``ast`` check, so it needs no linter.  A module-level import counts
as used when its bound name appears anywhere in the module -- as a name, as
the root of an attribute chain, inside a string annotation, or in
``__all__`` (a deliberate re-export).  Package ``__init__.py`` files exist to
re-export, so they are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import in module scope.

    Module scope includes the bodies of top-level ``if`` / ``try`` blocks
    (``TYPE_CHECKING`` guards, optional dependencies), not function or class
    bodies.
    """
    todo: List[ast.stmt] = list(tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield (alias.asname or alias.name.split(".")[0]), stmt.lineno
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), stmt.lineno
        elif isinstance(stmt, ast.If):
            todo.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            todo.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                todo.extend(handler.body)


def _names_in_string(text: str) -> Set[str]:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    used.add(elt.value)
    # String (forward-reference) annotations, e.g. ``-> "Match"``.
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in_string(node.value)
    return used


def _scan(path: Path, root: Path) -> List[str]:
    """``"relative/path.py:line: name"`` per unused module-level import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return sorted(
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in used
    )


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from json import dumps as to_json\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'Dict[str, int]') -> List[int]:\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    hits = [hit.split(": ", 1)[1] for hit in _scan(module, tmp_path)]
    assert hits == ["math", "to_json"]


def test_no_unused_module_level_imports_in_src():
    hits = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for hit in _scan(path, SRC)
    ]
    assert hits == [], "unused module-level imports:\n" + "\n".join(hits)
