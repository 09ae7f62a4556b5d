"""Every top-level function and class of the package is used somewhere in the
package itself, not only by tests."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtcodec"


def used_names(node: ast.AST) -> Counter:
    """Identifiers that ``node`` reads, calls, or imports by name."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unused_definitions(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((used_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # uses inside its own body (recursion, class attributes) do not count
                if total[node.name] - used_names(node)[node.name] == 0:
                    unused.append(f"{module}:{node.name}")
    return unused


def test_no_top_level_definition_is_unused():
    assert unused_definitions(SRC) == []
