"""No kgmend module imports another module's private (`_`-prefixed) names.

A private name is free to change with its own module; a second module that
imports it turns it into an interface nobody declared.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kgmend"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        # `from .x import` (level > 0) or `from kgmend.x import`
        internal = node.level > 0 or (node.module or "").split(".")[0] == "kgmend"
        if internal:
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_imports(path)] == []
