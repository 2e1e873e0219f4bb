"""Every exported name has a caller in the package, or a stated reason not to.

Each module's ``__all__`` is the package's surface.  A name that nothing in
``src/aaopt`` uses is code that only the tests run, so it either gets a caller
or goes, unless it is listed below with the reason it stays.  The package's
``__init__.py`` is left out of the search: it re-exports most of those names,
and each one it imports must be in its module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aaopt"

ALLOWED_WITHOUT_CALLER = {
    "admm_step": "criterion 08 checks the ADMM/DRS correspondence with it",
    "irl1_beta_window": "criterion 12 checks the contractivity window formula with it",
    "svm_dual_grad": "criterion 04 checks it against central differences",
    "nnls_grad": "criterion 04 checks it against central differences",
    "identification_iter": "criterion 10 uses it on a stored pattern sequence",
    "cg_solve_spd": "the benchmark's tracer patches it by name",
    "phi_value": "the reference for phi_deriv's difference-quotient test",
    "read_trace": "the round-trip partner of write_trace",
}


def modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def references(tree: ast.Module) -> set[str]:
    """Names loaded or read as attributes, outside the body of their own definition."""
    found: set[str] = set()

    def visit(node: ast.AST, defining: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != defining:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != defining:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, None)
    return found


def test_every_export_has_a_caller_in_the_package():
    trees = modules()
    used = set().union(*(references(tree) for tree in trees.values()))
    exports = {name: mod for mod, tree in trees.items() for name in exported(tree)}
    unused = sorted("%s.%s" % (exports[n], n) for n in exports if n not in used and n not in ALLOWED_WITHOUT_CALLER)
    assert unused == [], "exported but never used in src/aaopt: %s" % unused
    stale = sorted(n for n in ALLOWED_WITHOUT_CALLER if n not in exports or n in used)
    assert stale == [], "allowlisted names that are gone or now have a caller: %s" % stale


def test_the_package_reexports_only_exported_names():
    trees = modules()
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    outside = sorted("%s.%s" % (mod, name) for mod, name in imported if name not in exported(trees[mod]))
    assert outside == [], "imported by __init__.py but not in the module's __all__: %s" % outside
