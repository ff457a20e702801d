"""Dead-code checks on the package source, written with the stdlib `ast`.

No linter is installed, so these checks stand in for one: every import of a
module is used in that module or re-exported through its `__all__` (the
package's `__init__` imports only to re-export), every module-level private
function is referenced somewhere in the package, every method or property
of a package class is referenced somewhere in the package, the tests or the
benchmark, and every parameter of a function or lambda is read in its body.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "expmorse"
TREES: Dict[str, ast.Module] = {
    p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
    for p in sorted(SRC.glob("*.py"))}


def _names_used(tree: ast.Module) -> Set[str]:
    """Every identifier read in the module: bare names, attributes, `__all__` entries."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return used


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    used = set().union(*map(_names_used, TREES.values()))
    unreferenced = [f"{name}:{node.lineno} {node.name}"
                    for name, tree in TREES.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and node.name not in used]
    assert unreferenced == []


def test_every_method_is_referenced():
    others = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    used = set().union(*map(_names_used, [*TREES.values(), *others]))
    # dunder methods are called by the language, not by name
    unreferenced = [f"{name}:{item.lineno} {node.name}.{item.name}"
                    for name, tree in TREES.items() for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__") and item.name not in used]
    assert unreferenced == []


def test_every_parameter_is_read():
    unread = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(p for p in (a.vararg, a.kwarg) if p is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p.arg})"
                          for p in params if p.arg not in ("self", "cls") and p.arg not in read)
    assert unread == []
