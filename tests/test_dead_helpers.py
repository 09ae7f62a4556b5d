"""Every top-level function and class of the package, and every method and
property of those classes, is used somewhere in the package itself, not only
by tests. Dunder methods are exempt: Python calls them."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtcodec"


def used_names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """Identifiers that ``node`` reads, calls, or imports by name; with
    ``attributes_only``, just those read as ``obj.name``."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_definitions(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((used_names(tree) for tree in trees.values()), Counter())
    # a method or property is only reached as ``obj.name``; a local variable
    # of the same name does not use it
    total_attrs = sum((used_names(tree, attributes_only=True) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # uses inside its own body (recursion, class attributes) do not count
            if total[node.name] - used_names(node)[node.name] == 0:
                unused.append(f"{module}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or is_dunder(member.name):
                    continue
                if total_attrs[member.name] - used_names(member, attributes_only=True)[member.name] == 0:
                    unused.append(f"{module}:{node.name}.{member.name}")
    return unused


def test_no_top_level_definition_is_unused():
    assert unused_definitions(SRC) == []
