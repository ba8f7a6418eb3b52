"""Source hygiene of ``src/smm``: no unused imports, no unused private names.

No linter is part of the toolchain, so these two rules are checked here
with ``ast``. A module other than ``__init__.py``, whose imports are its
exports, must use every name it imports and every private module-level
name it defines. A name counts as used where it is read anywhere in the
module, including inside a string annotation. An import on a line marked
``# noqa: F401`` is exempt: such a name is kept for another module to
rebind.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "smm"
MODULES = sorted(path.name for path in SRC.glob("*.py")
                 if path.name != "__init__.py")


def _read_names(tree: ast.AST) -> set[str]:
    """The names read anywhere in ``tree``, string annotations included."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def problems(source: str) -> list[str]:
    """Each unused import and unused private module-level name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                isinstance(node, ast.ImportFrom) and \
                node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used and \
                    "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(f"line {alias.lineno}: {name!r} is imported "
                             f"and never used")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [f"line {node.lineno}: {name!r} is defined and never used"
                  for name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in used]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_what_it_imports_and_defines(module):
    assert problems((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,expected", [
    ("from typing import Callable, Iterable, Mapping, Union\n"
     "f: Callable[[Iterable], Union[int, str]]\n",
     ["line 1: 'Mapping' is imported and never used"]),
    ("import os.path\nimport json as j\n",
     ["line 1: 'os' is imported and never used",
      "line 2: 'j' is imported and never used"]),
    ("def f():\n    from . import actions\n    return 1\n",
     ["line 2: 'actions' is imported and never used"]),
    ("from .universe import super_chain  # noqa: F401\n", []),
    ("from typing import Mapping\ndef f(m: 'Mapping[str, int]'): pass\n", []),
    ("from typing import Mapping\ndef f() -> 'list[Mapping]': pass\n", []),
    ("from typing import Mapping\nx: 'Mapping' = {}\n", []),
    ("from __future__ import annotations\n", []),
    ("_A = 1\n_B: int = 2\ndef _f(): pass\nclass _C: pass\n__all__ = []\n",
     ["line 1: '_A' is defined and never used",
      "line 2: '_B' is defined and never used",
      "line 3: '_f' is defined and never used",
      "line 4: '_C' is defined and never used"]),
    ("_A = 1\ndef f():\n    return _A\n", []),
    ("def f():\n    _local = 1\n", []),
])
def test_the_checker_finds_unused_names(source, expected):
    assert problems(source) == expected
