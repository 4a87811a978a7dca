"""No kgmend module imports another module's private (`_`-prefixed) names,
nor reads a private attribute of any object but `self` or `cls`.

A private name is free to change with its own module or class; code
elsewhere that uses it turns it into an interface nobody declared.
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


def _private_attribute_reads(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return found


def test_no_module_reads_another_objects_private_attribute():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_attribute_reads(path)] == []
