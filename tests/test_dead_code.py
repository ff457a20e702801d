"""Dead-code checks on the package source.

No linter is installed, so these checks stand in for one. The reach test
runs commands: every function and method defined in the package must be
entered by a command or by the benchmark's tracer, so a helper that only
tests call fails it and belongs in `tests/`. The other checks read the
source with the stdlib `ast` and ask that each thing is named somewhere:
every import of a module is used in that module or re-exported through its
`__all__` (the package's `__init__` imports only to re-export), every
module-level private function is referenced somewhere in the package, every
method or property of a package class is referenced somewhere in the
package, the tests or the benchmark, every public module-level function,
class and upper-case constant is referenced there too, outside its own
definition, `__all__` and the package's `__init__`, and every parameter of
a function or lambda is read in its body.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


def _defined_functions() -> Dict[Tuple[str, int, str], str]:
    """Every function and method in the package, by (module file, first line, name).

    The first line is the first decorator's, as in a code object's
    `co_firstlineno`; the value is the qualified name.
    """
    out: Dict[Tuple[str, int, str], str] = {}

    def visit(node: ast.AST, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[file, first, child.name] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for name, tree in TREES.items():
        visit(tree, name, "")
    return out


# Runs in a fresh interpreter, so no cache filled by another test hides a
# call. The benchmark's tracer is installed first, since the benchmark calls
# the package too, and its own listing of NC's faces runs last.
_REACH_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
src, codes = {src!r}, set()
sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
from tracer import Tracer
from expmorse import cli, complexes, gf2, graphs, homc, pipeline
tracer = Tracer()
tracer.install(cli, pipeline, graphs, complexes, gf2, homc)
exits = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(cli.main(argv))
tracer.enumerate_nc_faces()
sys.setprofile(None)
print(json.dumps([exits, sorted({{(c.co_filename[len(src) + 1:], c.co_firstlineno, c.co_name)
                                 for c in codes if c.co_filename.startswith(src)}})]))
"""

# (argv, exit code): every command kind, each `compute` target, a graph file
# with nested neighbourhoods (and a dominated vertex), and the exit-2 and
# exit-3 paths.
_REACH_COMMANDS = [
    (["reproduce", "--n", "3"], 0),
    (["reproduce", "--n", "3", "--format", "csv"], 0),
    (["reproduce", "--n", "3", "--method", "morse", "--format", "csv"], 0),
    (["reproduce", "--n", "5", "--m", "3"], 0),
    (["reproduce", "--n", "4", "--m", "4"], 0),
    (["reproduce", "--n", "3", "--m", "2"], 0),
    (["verify", "--n", "3", "--lemma", "all"], 0),
    (["compute", "exp-graph", "--g", "k2", "--h", "k3"], 0),
    (["compute", "exp-graph", "--g", "k2", "--h", "k3", "--format", "csv"], 0),
    (["compute", "fold", "--graph", "{graph}"], 0),
    (["compute", "ncomplex", "--graph", "{graph}"], 0),
    (["compute", "homology", "--graph", "{graph}"], 0),
    (["compute", "ncomplex", "--graph", "c5", "--format", "csv"], 0),
    (["compute", "homology", "--exp", "3", "2", "--max-dim", "2"], 0),
    (["compute", "homology", "--graph", "c9", "--format", "csv"], 0),
    (["compute", "homology", "--graph", "k3", "--max-dim", "5"], 0),
    (["compute", "homology", "--graph", "k4", "--max-faces", "24"], 0),
    (["compute", "hom", "--g", "k2", "--h", "k6"], 0),
    (["compute", "hom", "--g", "k4", "--h", "k4"], 0),
    (["compute", "hom", "--g", "k2", "--h", "{graph}"], 0),
    (["reproduce", "--n", "6"], 2),
    (["compute", "homology", "--graph", "k4", "--max-faces", "23"], 3),
]


def test_every_function_is_entered_by_a_command_or_the_benchmark(tmp_path):
    # Edges a-b, b-c, c-d and b-d: N(a) = {b} lies inside N(c) = {b, d}, so
    # the neighborhood complex has a nested facet (`_facet_index`) and the
    # graph has a fold. Hom(K2, G) has beat points: its 20 cells shrink to
    # a 12-cell core.
    graph = tmp_path / "nested.json"
    graph.write_text(json.dumps({"labels": ["a", "b", "c", "d"],
                                 "edges": [[0, 1], [1, 2], [2, 3], [1, 3]],
                                 "loops": []}), encoding="utf-8")
    commands = [[a.format(graph=graph) for a in argv] for argv, _ in _REACH_COMMANDS]
    code = _REACH_CHILD.format(perfbench=str(ROOT / "perfbench"), src=str(SRC),
                               commands=commands)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    exits, entered = json.loads(proc.stdout)
    assert exits == [want for _, want in _REACH_COMMANDS]
    # No function is exempt: one that only tests call belongs in tests/.
    defined = _defined_functions()
    unreached = defined.keys() - {tuple(e) for e in entered}
    assert sorted(f"{key[0]} {defined[key]}" for key in unreached) == []


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
