"""Every exported name has a caller in the package, or a stated reason not to.

Each module's ``__all__`` is the package's surface.  A name that nothing in
``src/aaopt`` uses is code that only the tests run, so it either gets a caller
or goes, unless it is listed below with the reason it stays.  The package's
``__init__.py`` is left out of the search: it star-imports each public module,
so ``aaopt`` exposes exactly the names in those ``__all__`` lists.

The compiled surface is held to the same rule: each kernel that
``_kernels._SIGNATURES`` declares is bound or called from ``src/aaopt``,
unless it is listed with its reason.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import aaopt
from aaopt import _kernels

SRC = Path(__file__).resolve().parents[1] / "src" / "aaopt"

ALLOWED_WITHOUT_CALLER = {
    "admm_step": "criterion 08 checks the ADMM/DRS correspondence with it",
    "drs_parts": "criteria 07 and 08 check the nnls relations and the ADMM/DRS correspondence with it",
    "nonneg_project": "criterion 07 checks the projected-gradient residual with it",
    "irl1_beta_window": "criterion 12 checks the contractivity window formula with it",
    "svm_dual_grad": "criterion 04 checks it against central differences",
    "lasso_grad": "criterion 04 checks it against central differences",
    "nnls_grad": "criterion 04 checks it against central differences",
    "identification_iter": "criterion 10 uses it, and the benchmark's tracer patches it by name",
    "cg_solve_spd": "the benchmark's tracer patches it by name",
    "read_trace": "the round-trip partner of write_trace",
}

KERNELS_ALLOWED_WITHOUT_CALLER = {
    "aaopt_fsum": "the tests hold the port to math.fsum",
}


def modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def public_modules() -> list[str]:
    """The modules whose ``__all__`` the package star-imports."""
    return [mod for mod, tree in modules().items() if not mod.startswith("_") and exported(tree)]


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


def kernel_references(tree: ast.Module) -> set[str]:
    """Strings and attribute names, outside the ``_SIGNATURES`` table that declares the kernels.

    A kernel is bound by its name as a string, or called as an attribute of the library.
    """
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_SIGNATURES" for t in node.targets):
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_every_compiled_kernel_has_a_caller_in_the_package():
    used = set().union(*(kernel_references(tree) for tree in modules().values()))
    declared = _kernels._SIGNATURES
    unused = sorted(n for n in declared if n not in used and n not in KERNELS_ALLOWED_WITHOUT_CALLER)
    assert unused == [], "compiled kernels never bound or called in src/aaopt: %s" % unused
    stale = sorted(n for n in KERNELS_ALLOWED_WITHOUT_CALLER if n not in declared or n in used)
    assert stale == [], "allowlisted kernels that are gone or now have a caller: %s" % stale


def test_every_export_has_a_caller_in_the_package():
    trees = modules()
    used = set().union(*(references(tree) for tree in trees.values()))
    exports = {name: mod for mod, tree in trees.items() for name in exported(tree)}
    unused = sorted("%s.%s" % (exports[n], n) for n in exports if n not in used and n not in ALLOWED_WITHOUT_CALLER)
    assert unused == [], "exported but never used in src/aaopt: %s" % unused
    stale = sorted(n for n in ALLOWED_WITHOUT_CALLER if n not in exports or n in used)
    assert stale == [], "allowlisted names that are gone or now have a caller: %s" % stale


def test_the_package_star_imports_each_public_module():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in init.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    named = sorted("%s.%s" % (node.module, alias.name) for node in imports for alias in node.names
                   if alias.name != "*")
    assert named == [], "__init__.py imports names by hand: %s" % named
    assert sorted(node.module for node in imports) == public_modules()


def test_the_package_exposes_each_exported_name_as_its_modules_object():
    expected: dict[str, object] = {}
    for mod in public_modules():
        module = importlib.import_module("aaopt." + mod)
        for name in module.__all__:
            assert name not in expected, "%s is exported by two modules" % name
            expected[name] = getattr(module, name)
    mismatched = sorted(n for n, obj in expected.items() if getattr(aaopt, n, expected) is not obj)
    assert mismatched == [], "aaopt does not expose these as their modules' objects: %s" % mismatched
    extra = sorted(n for n, obj in vars(aaopt).items()
                   if not n.startswith("_") and not isinstance(obj, types.ModuleType) and n not in expected)
    assert extra == [], "aaopt exposes names outside every __all__: %s" % extra
