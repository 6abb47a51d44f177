"""Every function, class and method defined in the package is used.

A definition counts as used when its name appears somewhere in src/,
tests/ or demos/ as a Name, an Attribute or an import (imports in
``__init__.py`` only re-export, so they do not count), not counting
the definition's own body.  Matching is by name, so a definition shares
its uses with every other definition of the same name.  Dunder methods
are called by Python itself and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compnet"

# hooks that a framework calls by name
ALLOWED = {
    "_Parser.error",  # argparse calls it on a usage error
}


def _uses(tree: ast.AST, count_imports: bool) -> Counter:
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif count_imports and isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) for every function and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_is_used():
    uses: Counter = Counter()
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses += _uses(tree, count_imports=path.name != "__init__.py")

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualname in ALLOWED:
                continue
            if uses[name] - _uses(node, count_imports=True)[name] <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == [], f"defined but never used: {unused}"
