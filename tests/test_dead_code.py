"""Dead-code checks on the package source, written with the stdlib `ast`.

No linter is installed, so these checks stand in for one: every import of a
module is used in that module or re-exported through its `__all__` (the
package's `__init__` imports only to re-export), every module-level private
function is referenced somewhere in the package, every method or property
of a package class is referenced somewhere in the package, the tests or the
benchmark, every public module-level function, class and upper-case
constant is referenced there too, outside its own definition, `__all__`
and the package's `__init__`, and every parameter of a function or lambda
is read in its body.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

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


def _other_trees() -> List[ast.Module]:
    """The tests and the benchmark, parsed."""
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_method_is_referenced():
    used = set().union(*map(_names_used, [*TREES.values(), *_other_trees()]))
    # dunder methods are called by the language, not by name
    unreferenced = [f"{name}:{item.lineno} {node.name}.{item.name}"
                    for name, tree in TREES.items() for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__") and item.name not in used]
    assert unreferenced == []


def _names_read(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every bare name loaded and every attribute named anywhere under the nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """Each module-level public function, class and upper-case constant, with its name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        yield from ((node, name) for name in names if not name.startswith("_"))


def test_every_public_name_is_referenced():
    # `_names_read` skips `__all__`'s strings, and `__init__` only re-exports
    modules = {name: tree for name, tree in TREES.items() if name != "__init__.py"}
    used_elsewhere = _names_read(_other_trees())
    unreferenced = []
    for name, tree in modules.items():
        used = used_elsewhere | _names_read(t for n, t in modules.items() if n != name)
        for node, public in _public_definitions(tree):
            rest = [stmt for stmt in tree.body if stmt is not node]
            if public not in used and public not in _names_read(rest):
                unreferenced.append(f"{name}:{node.lineno} {public}")
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
