"""Every top-level function and class of the package, and every method and
property of those classes, is used somewhere in the package itself, not only
by tests. Dunder methods are exempt: Python calls them."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtcodec"


def used_names(node: ast.AST) -> Counter:
    """Identifiers that ``node`` reads, calls, or imports by name, ``obj.name`` included."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def known_owners(fn: ast.FunctionDef, classes: set[str]) -> dict[str, str]:
    """Names in ``fn`` whose package class is known: parameters annotated with
    one, and names assigned from a call to one."""
    owners = {}
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if isinstance(arg.annotation, ast.Name) and arg.annotation.id in classes:
            owners[arg.arg] = arg.annotation.id
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
            func = sub.value.func
            if isinstance(func, ast.Name) and func.id in classes:
                owners.update({t.id: func.id for t in sub.targets if isinstance(t, ast.Name)})
    return owners


def attribute_reads(node: ast.AST, classes: set[str], owners: dict[str, str], reads: Counter) -> Counter:
    """Count each ``x.name`` under ``node`` as (name, owner), the owner being
    x's package class when known (``self``/``cls`` in a class body, or see
    ``known_owners``) and None otherwise."""
    if isinstance(node, ast.ClassDef):
        owners = {**owners, "self": node.name, "cls": node.name}
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owners = {**owners, **known_owners(node, classes)}
    elif isinstance(node, ast.Attribute):
        x = node.value
        reads[node.attr, owners.get(x.id) if isinstance(x, ast.Name) else None] += 1
    for child in ast.iter_child_nodes(node):
        attribute_reads(child, classes, owners, reads)
    return reads


def family(name: str, bases: dict[str, list[str]]) -> set[str]:
    """The class, its package bases and its package subclasses."""

    def lineage(cls: str) -> set[str]:
        return {cls}.union(*(lineage(base) for base in bases[cls]))

    return {cls for cls in bases if name in lineage(cls) or cls in lineage(name)}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_definitions(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((used_names(tree) for tree in trees.values()), Counter())
    class_defs = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    classes = {node.name for node in class_defs}
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name) and b.id in classes] for node in class_defs}
    # a method or property is only reached as ``x.name``, and only when x may
    # be its class; a local variable of the same name does not use it
    reads: Counter = Counter()
    for tree in trees.values():
        attribute_reads(tree, classes, {}, reads)
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
            kin = family(node.name, bases)
            own_class = {"self": node.name, "cls": node.name}
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or is_dunder(member.name):
                    continue
                own = attribute_reads(member, classes, own_class, Counter())
                if not any(
                    count - own[name, owner] > 0
                    for (name, owner), count in reads.items()
                    if name == member.name and (owner is None or owner in kin)
                ):
                    unused.append(f"{module}:{node.name}.{member.name}")
    return unused


def test_no_top_level_definition_is_unused():
    assert unused_definitions(SRC) == []


def test_a_read_on_another_class_does_not_use_a_member(tmp_path):
    """``params.k`` with ``params: CodeParams`` reads CodeParams' k, not the
    dead property of another class."""
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class CodeParams:\n"
        "    k: int\n"
        "\n"
        "class DeletionPattern:\n"
        "    @property\n"
        "    def k(self) -> int:\n"
        "        return 0\n"
        "\n"
        "def budget(params: CodeParams) -> int:\n"
        "    return params.k\n"
        "\n"
        "budget(CodeParams(2)), DeletionPattern()\n"
    )
    assert unused_definitions(tmp_path) == ["mod.py:DeletionPattern.k"]
