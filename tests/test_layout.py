"""`src/landau` holds what the program runs: every public top-level function
or class of the package is used somewhere in the package outside its own
definition (a re-export in `__init__` is not a use), or is named below with
the reason it stays. A helper that only tests or demos call belongs in
tests/oracles.py or in its demo. Each name has one import path, its own
module: the package root holds only its docstring and `__version__`. Every
hook of the benchmark in perfbench/ names a function of the package, or is
named below as stale with the reason it stays."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "landau"
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# name -> why it stays without a caller in the package
ALLOWED = {
    "InfiniteConfig": "README object API",
    "commutant_dimension": "ROADMAP item 3",
    "eigenstate_py": "ROADMAP item 4",
    "torus_eigenstate": "object API of the torus demo and the acceptance criteria; `density` streams its state",
}

# perfbench hook -> why it stays although it names no function of the
# package; perfbench changes only with the benchmark, so a change that orphans
# a hook adds it here
KNOWN_STALE = {
    name: "ROADMAP item 19"
    for name in (
        "landau.maggroup.identity",
        "landau.maggroup.inverse",
        "landau.maggroup.multiply",
        "landau.oscillator.hermite_functions",
        "landau.plane.apply_operator_plane",
        "landau.plane.coherent_center",
        "landau.plane.ladder_apply",
        "landau.spectral.build_hamiltonian",
        "landau.spectral.lowest_eigenpairs",
        "landau.spectral.lowest_eigenvalues",
        "landau.torus.apply_translation_power",
        "landau.torus.apply_tx",
        "landau.torus.apply_ty",
        "landau.torus.coherent_prefactor",
        "landau.torus.eigenbasis_coefficients",
        "landau.torus.expectation",
        "landau.torus.translation_expectation",
    )
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


def _assigned(path, *names):
    """The expressions assigned to `names` at the top level of `path`, read
    without importing it (perfbench/run.py sets the BLAS thread variables
    when it is imported)."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return [found[name] for name in names]


def perfbench_hooks():
    """Dotted names of the package functions that perfbench hooks: the
    `LAYERS` entries that name a function and the `COUNTS` of run.py, and the
    `HOT` names and `OBSERVERS` keys of tracer.py."""
    layers, counts = (ast.literal_eval(value) for value in _assigned(PERFBENCH / "run.py", "LAYERS", "COUNTS"))
    hot, observers = _assigned(PERFBENCH / "tracer.py", "HOT", "OBSERVERS")
    return (
        {f"landau.{module}.{func}" for module, func in layers if func is not None}
        | set(counts.values())
        | ast.literal_eval(hot)
        | {ast.literal_eval(key) for key in observers.keys}
    )


def test_perfbench_hooks_name_package_functions():
    functions = {
        f"landau.{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert perfbench_hooks() - functions == set(KNOWN_STALE), "a hook that names no function: fix perfbench or list it"
