"""`src/landau` holds what the program runs: every public top-level function
or class of the package is used somewhere in the package outside its own
definition (a re-export in `__init__` is not a use), or is named below with
the reason it stays. A helper that only tests or demos call belongs in
tests/oracles.py or in its demo. Each name has one import path, its own
module: the package root holds only its docstring and `__version__`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "landau"

# name -> why it stays without a caller in the package
ALLOWED = {
    "InfiniteConfig": "README object API",
    "commutant_dimension": "ROADMAP item 3",
    "eigenstate_py": "ROADMAP item 4",
}


def _uses(node, module_names):
    """Names read anywhere in node: bare names, and attributes of a package
    module (`maggroup.elements`), not of anything else (`np.multiply`)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in module_names:
            found.add(sub.attr)
    return found


def unused_public_names():
    """Public top-level functions and classes of the package that no
    top-level statement of the package other than their own definition reads
    (`__init__` excluded)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    statements = [(node, _uses(node, trees)) for tree in trees.values() for node in tree.body]
    return {
        node.name
        for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in uses for other, uses in statements if other is not node)
    }


def test_every_public_name_is_used_or_allowed():
    unused = unused_public_names()
    assert unused - set(ALLOWED) == set(), "no caller in src/landau: move to tests/oracles.py or a demo, or allow with a reason"


def test_allowlist_is_not_stale():
    # an allowed name that gained a caller, or left the package, leaves the list
    assert set(ALLOWED) <= unused_public_names()


def test_package_root_holds_only_version():
    # a re-export block in __init__ would give every name a second path
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 2, "import each name from its own module, not from the package root"
    docstring, version = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(docstring.value.value, str)
    assert isinstance(version, ast.Assign) and [t.id for t in version.targets] == ["__version__"]
