"""The package holds no code that only the tests call."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dbnet").glob("*.py"))
# the benchmark harness calls and traces package functions too
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
# definitions that no package or harness code names, each with its reason
KEPT = {
    "rounding.draws": "the reference definition of the keyed draws U(key, "
                      "rep, slot) that the engine's tests compare against",
}


def names(tree: ast.AST) -> Counter:
    """Every name that ``tree`` reads: variables, attributes, and each part
    of a dotted string such as the ``"LPModel.max_violation"`` targets that
    the harness traces."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                seen.update(parts)
    return seen


def constants(tree: ast.Module):
    """Each module-level assignment of ``tree`` and the names it binds."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node, name.id


def unnamed_definitions() -> set[str]:
    """``module.name`` of each function, method, class and module-level
    constant of the package that no code outside its own definition names;
    dunder names are read by the language and do not count."""
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    total = sum((names(tree) for tree in trees.values()), Counter())
    out = set()
    for path in PACKAGE:
        defined = [(node, node.name) for node in ast.walk(trees[path])
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))]
        for node, name in defined + list(constants(trees[path])):
            if (not (name.startswith("__") and name.endswith("__"))
                    and total[name] == names(node)[name]):
                out.add(f"{path.stem}.{name}")
    return out


def test_every_definition_is_named_by_the_package_or_the_harness():
    unnamed = unnamed_definitions()
    assert sorted(unnamed - set(KEPT)) == []
    # an exception whose definition is named again, or gone, is dropped
    assert sorted(set(KEPT) - unnamed) == []
