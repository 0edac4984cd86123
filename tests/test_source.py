"""What ``src/sbcheck`` holds: no function or class that only tests or the
benchmark reach."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbcheck"
# read only by bench/, which pins them until the benchmark itself changes
BENCH_PINNED = {"ctl.ctl_oracle", "compare.rerooted", "flat.FlatLTS.transitions",
                "flat.FlatTransition"}


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
