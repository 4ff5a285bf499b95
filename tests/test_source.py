"""Rules about the source tree itself, checked by reading it with ``ast``.

Code that only its own tests use gets deleted, so every private function,
method or class in ``src/dpsynth`` must be used by ``src/`` code outside its
own definition. A recursive call or an import alone does not count.

Files are written only through ``cli._write_in_place``, which rewrites a file
in place and cuts it to its new length, so every written file behaves alike.
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


def source_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def file_writes(tree: ast.Module):
    """(line, call) of each call in the module that may write a file:
    ``write_text``, ``write_bytes``, ``os.open``, and ``open(file, mode)`` or
    ``path.open(mode)`` with a mode that is not a literal read mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1:2]
        elif not isinstance(func, ast.Attribute):
            continue
        elif func.attr in ("write_text", "write_bytes") or (
            func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os"
        ):
            yield node.lineno, func.attr
            continue
        elif func.attr == "open":
            mode = node.args[0:1]
        else:
            continue
        mode = [k.value for k in node.keywords if k.arg == "mode"] or mode
        if mode and not (isinstance(mode[0], ast.Constant) and set(str(mode[0].value)) <= set("rbt")):
            yield node.lineno, "open"


def test_every_private_helper_has_a_caller_in_src():
    trees = source_trees()
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


def test_files_are_written_only_through_the_in_place_writer():
    writers, outside = [], []
    for module, tree in source_trees().items():
        spans = [
            (node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_write_in_place"
        ]
        writers += [f"{module}:{first}" for first, _ in spans]
        outside += [
            f"{module}:{line} {call}" for line, call in file_writes(tree)
            if not any(first <= line <= last for first, last in spans)
        ]
    assert len(writers) == 1, f"one _write_in_place expected, found {writers}"
    assert outside == [], f"files written outside _write_in_place: {outside}"
