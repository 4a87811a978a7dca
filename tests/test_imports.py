"""No kgmend module imports another module's private (`_`-prefixed) names,
nor reads a private attribute of any object but `self` or `cls`.

A private name is free to change with its own module or class; code
elsewhere that uses it turns it into an interface nobody declared.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import kgmend
from kgmend import evalkit, validation

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


def _is_click_command(node) -> bool:
    # `@main.command(...)` or `@click.group()`
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _unreached_definitions() -> list[str]:
    """Functions, classes and methods of the package that nothing else in it
    names, that are not click commands or dunders, and that `__all__` omits."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    references = [(node, node.id if isinstance(node, ast.Name) else node.attr)
                  for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for tree in trees:
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scopes.append((node, prefix))
                    continue
                scopes.append((node, f"{prefix}{node.name}."))
                name = node.name
                if (name.startswith("__") and name.endswith("__")) or _is_click_command(node) \
                        or (not prefix and name in kgmend.__all__):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                if not any(ref == name and id(n) not in inside for n, ref in references):
                    found.append(prefix + name)
    return sorted(found)


def test_every_definition_is_reached_from_the_package():
    """Code that only tests call does not ship: each function, class and
    method is named somewhere else in the package, exported, a click command
    or a dunder."""
    assert _unreached_definitions() == []


def _collector_uses() -> list[str]:
    """Imports of `gc` outside `graph_store`, and names of it outside
    `graph_store.collector_paused`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(n) for node in ast.walk(tree)
                   if path.name == "graph_store.py"
                   and isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name == "collector_paused" for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = []
            if "gc" in names and path.name != "graph_store.py":
                found.append(f"{path.name}:{node.lineno}: import gc")
            if isinstance(node, ast.Name) and node.id == "gc" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}: gc")
    return found


def test_only_collector_paused_touches_the_collector():
    """One rule for the cyclic garbage collector, kept in one place: bulk work
    runs under `graph_store.collector_paused`, which alone calls `gc`."""
    assert _collector_uses() == []


def _usage_error_boundaries() -> tuple[int, list[str]]:
    """The number of `try` statements in `cli`, and the names of `UsageError`
    outside `cli._usage_errors`."""
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    allowed = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_usage_errors"
               for n in ast.walk(node)}
    tries, found = 0, []
    for node in ast.walk(tree):
        tries += isinstance(node, ast.Try)
        named = (isinstance(node, ast.Name) and node.id == "UsageError") \
            or (isinstance(node, ast.Attribute) and node.attr == "UsageError")
        if named and id(node) not in allowed:
            found.append(f"cli.py:{node.lineno}: UsageError")
    return tries, found


def test_cli_has_one_usage_error_boundary():
    """One rule for bad input on the command line: a ValueError raised while
    options are parsed or input files are read becomes a usage error (exit 2)
    in `cli._usage_errors`, which holds the module's one `try`."""
    assert _usage_error_boundaries() == (1, [])


# The store's methods that may read an adjacency entry as it is held: a bare
# Tuple for a lone edge, a list for more. Every other read goes through
# `graph_store._edges`, since a bare Tuple has a len of 3 and its fields
# iterate as if they were edges.
ENTRY_READERS = {"__init__", "_link", "remove_tuple"}


def _adjacency_reads(source: str) -> list[str]:
    """Uses of `self._out` or `self._in` outside `ENTRY_READERS` that are
    neither an argument of `_edges` nor, in `vertices`, a read of keys
    (iterating the dict, or `in` / `not in`)."""
    tree = ast.parse(source)
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ("_out", "_in")
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            continue
        up = scope = parent[id(node)]
        while not isinstance(scope, ast.FunctionDef):
            scope = parent[id(scope)]
        unwrapped = (isinstance(up, ast.Call) and isinstance(up.func, ast.Name)
                     and up.func.id == "_edges" and node in up.args)
        keys = scope.name == "vertices" and (
            (isinstance(up, ast.YieldFrom) and up.value is node)
            or (isinstance(up, ast.comprehension) and up.iter is node)
            or (isinstance(up, ast.Compare) and node in up.comparators
                and all(isinstance(op, (ast.In, ast.NotIn)) for op in up.ops)))
        if scope.name not in ENTRY_READERS and not unwrapped and not keys:
            found.append((node.lineno, f"{node.lineno}: {scope.name}: self.{node.attr}"))
    return [hit for _, hit in sorted(found)]


def test_adjacency_entries_are_read_through_one_helper():
    assert _adjacency_reads((SRC / "graph_store.py").read_text()) == []


def test_the_adjacency_check_flags_a_raw_entry_read():
    source = '''
class Store:
    def __init__(self):
        self._out, self._in = {}, {}

    def degree(self, v):
        return len(self._out.get(v, ())) + len(_edges(self._in, v))

    def edges_from(self, heads):
        out = self._out
        return [s for v in heads for s in _edges(out, v)]

    def vertices(self):
        yield from self._out
        yield from (v for v, held in self._in.items() if v not in self._out)
'''
    assert _adjacency_reads(source) == [
        "7: degree: self._out", "10: edges_from: self._out", "15: vertices: self._in"]


# Modules the package must not load. `hashlib` maps OpenSSL's libcrypto (3.6 MB
# of resident memory with CPython 3.11 on Linux x86-64) only to hand out the
# blake2b that CPython builds in, and the package has nothing to log.
UNLOADED = ("hashlib", "_hashlib", "logging")


def test_importing_the_cli_loads_neither_openssl_nor_logging():
    # a fresh interpreter: this test process has loaded both already
    probe = (f"import json, sys; import kgmend.cli; "
             f"print(json.dumps(sorted(set({UNLOADED!r}) & set(sys.modules))))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_the_draws_blake2b_is_hashlibs():
    # the same object, so every digest and sampled center is the one hashlib gives
    assert validation.blake2b is hashlib.blake2b
    assert evalkit.blake2b is hashlib.blake2b
