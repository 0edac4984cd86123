"""What ``src/sbcheck`` holds: no function or class that only tests or the
benchmark reach, no import that its module does not read, and no JSON call
that indents."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbcheck"
# read only by bench/, which pins them until the benchmark itself changes
BENCH_PINNED = {"ctl.ctl_oracle", "compare.rerooted", "flat.FlatLTS.transitions",
                "flat.FlatTransition"}
# imported to be read through their module: tests write them as F.And, F.Implies, F.Or
RE_EXPORTED = {"formula.And", "formula.Implies", "formula.Or"}


def _named(node):
    """The identifiers that the code under ``node`` names: names, attributes
    and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _definitions(node, prefix):
    """``(qualified name, node)`` of each function and class under ``node``,
    dunder methods left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def test_every_function_and_class_has_a_reader_in_src_or_the_library_docs():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = Counter(n for tree in trees.values() for n in _named(tree))
    readme = (ROOT / "README.md").read_text()
    library = set(re.findall(r"\w+", readme.split("\n## Library\n")[1].split("\n## ")[0]))
    unread = {
        name
        for module, tree in trees.items()
        for name, node in _definitions(tree, module)
        if node.name not in library
        and named[node.name] == sum(n == node.name for n in _named(node))  # only itself
    }
    assert unread <= BENCH_PINNED


def test_every_module_level_import_is_read_by_its_module():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                unread.update(f"{path.stem}: from __future__ import {a.name}" for a in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ((a.asname or a.name).partition(".")[0] for a in node.names)
                unread.update(f"{path.stem}.{name}" for name in names if name not in read)
    assert unread <= RE_EXPORTED


def test_no_json_call_passes_indent():
    # ``indent=`` selects the stdlib's pure-Python encoder, whose closures form
    # cycles on every call; ``flat._json`` writes the same text without them
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if name in ("dumps", "dump"):
                    calls.add(f"{path.stem}:{node.lineno}")
    assert calls == set()
