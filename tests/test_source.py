"""Rules about the source tree itself, checked by reading it with ``ast``.

Code that only its own tests use gets deleted, so every private function,
method or class in ``src/dpsynth`` must be used by ``src/`` code outside its
own definition. A recursive call or an import alone does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dpsynth"


def private_definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level or class-level
    function or class whose name starts with one underscore (no dunders)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, kinds) and node.name.startswith("_") and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def references(tree: ast.Module):
    """(name, line) of each name read or attribute accessed in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_helper_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        for name, line in references(tree):
            used.setdefault(name, []).append((module, line))
    definitions = [
        (module, *definition) for module, tree in trees.items()
        for definition in private_definitions(tree)
    ]
    assert definitions, "no private helper found; is SRC right?"
    unused = [
        f"{module}:{first} {name}" for module, name, first, last in definitions
        if all(where == module and first <= line <= last for where, line in used.get(name, []))
    ]
    assert unused == [], f"private helpers with no caller in src/: {unused}"
