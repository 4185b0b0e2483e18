"""Source scan: every name ``src/repro`` imports is read somewhere in its
module.

An import counts as read when its name appears in the module's code, in a
quoted annotation (the ``TYPE_CHECKING`` idiom), or in the module's
``__all__``.  A name mentioned only in a docstring or a comment is not
read.  The imports listed in ``UNUSED_IMPORTS`` stay on purpose; anything
else the scan finds fails the test, and a listed import that is read again
(or gone) must leave the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: (module, imported name) -> why the import stays although nothing reads it.
UNUSED_IMPORTS: dict[tuple[str, str], str] = {}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module (at any depth) -> line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
            found += [arg.annotation for arg in every if arg.annotation is not None]
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in quoted annotations and in
    ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {
                item.value for item in node.value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in read),
        key=lambda item: item[1],
    )


def scan() -> dict[tuple[str, str], int]:
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for name, line in unused_imports(path.read_text(encoding="utf-8")):
            found[(module, name)] = line
    return found


def test_src_has_no_unlisted_unused_import():
    found = scan()
    unlisted = {key: line for key, line in found.items() if key not in UNUSED_IMPORTS}
    assert not unlisted, "unused imports (delete them, or list them with a reason): " + ", ".join(
        f"{module}:{line} {name}" for (module, name), line in sorted(unlisted.items())
    )
    stale = sorted(set(UNUSED_IMPORTS) - set(found))
    assert not stale, f"listed imports that are read now, or gone: {stale}"


def test_scan_recognises_the_shapes():
    source = '''
"""Docstrings that name ``Mentioned`` do not read it."""
from __future__ import annotations

import os.path
import json as codec
from typing import TYPE_CHECKING, Callable
from collections import deque, OrderedDict

if TYPE_CHECKING:
    from pathlib import Path, PurePath

__all__ = ["OrderedDict"]


def load(path: "Path") -> Callable[[], None]:
    from functools import partial, reduce
    return partial(codec.loads, path)


from mentions import Mentioned
'''
    assert [name for name, _line in unused_imports(source)] == [
        "os", "deque", "PurePath", "reduce", "Mentioned"
    ]
