"""Every definition, defaulted parameter and class field in the package
is used.

A definition counts as used when its name appears somewhere in src/,
tests/ or demos/ as a Name, an Attribute or an import (imports in
``__init__.py`` only re-export, so they do not count), not counting
the definition's own body.  Matching is by name, so a definition shares
its uses with every other definition of the same name.  Dunder methods
are called by Python itself and are not checked.

A parameter with a default counts as used when some call outside the
function's own body passes it, by keyword or by position, to a function
of that name (to the class name for ``__init__``).  An annotated class
field counts as used when it is read as an attribute somewhere.  A
setting that every caller leaves at its default is a constant, and a
field that nothing reads is dead.
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


def _package():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_used():
    uses: Counter = Counter()
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses += _uses(tree, count_imports=path.name != "__init__.py")

    unused = []
    for stem, tree in _package():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualname in ALLOWED:
                continue
            if uses[name] - _uses(node, count_imports=True)[name] <= 0:
                unused.append(f"{stem}.{qualname}")
    assert unused == [], f"defined but never used: {unused}"


def _trees():
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _callees(call: ast.Call) -> list[str]:
    """The names a call may reach: its function's, or, for a dispatch
    table ``{key: f, ...}[key](...)``, every function in the table."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Dict):
        return [v.id for v in func.value.values if isinstance(v, ast.Name)]
    return []


def _defaulted(func: ast.FunctionDef, is_method: bool):
    """(name, position or None when keyword-only) of every parameter
    with a default; a method's self or cls takes no position."""
    args = func.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def test_every_defaulted_parameter_is_passed():
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for name in _callees(node):
                    calls.setdefault(name, []).append(node)

    never_passed = []
    for stem, tree in _package():
        definitions = dict(_definitions(tree))
        for qualname, node in definitions.items():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner, _, name = qualname.rpartition(".")
            if name == "__init__":
                name = owner.rpartition(".")[2]
            elif name.startswith("__") and name.endswith("__"):
                continue
            own = {id(c) for c in ast.walk(node) if isinstance(c, ast.Call)}
            outside = [c for c in calls.get(name, []) if id(c) not in own]
            is_method = isinstance(definitions.get(owner), ast.ClassDef)
            for param, position in _defaulted(node, is_method):
                if not any(_passes(c, param, position) for c in outside):
                    never_passed.append(f"{stem}.{qualname}({param}=)")
    assert never_passed == [], f"parameters no call passes: {never_passed}"


def test_every_class_field_is_read():
    reads: Counter = Counter()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1

    unread = []
    for stem, tree in _package():
        for qualname, node in _definitions(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if reads[item.target.id] == 0:
                        unread.append(f"{stem}.{qualname}.{item.target.id}")
    assert unread == [], f"class fields never read: {unread}"
