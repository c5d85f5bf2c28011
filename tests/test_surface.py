"""The public surface of the package: one name per object, a source tree
that imports nothing outside the standard library, and a polynomial format
that no module but poly reads."""

import ast
import sys
import types
from pathlib import Path

import linpole

SRC = Path(linpole.__file__).resolve().parent

REMOVED = ("WordPolynomial", "LyndonPolynomial", "germ_add", "germ_sub",
           "combination_germ", "monomial_germ", "spec_poly_germ", "render_germ")


def test_each_public_name_binds_its_own_object():
    public = {name: obj for name, obj in vars(linpole).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    names_of: dict[int, list[str]] = {}
    for name, obj in public.items():
        names_of.setdefault(id(obj), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []
    assert [name for name in REMOVED if hasattr(linpole, name)] == []
    assert public["LinComb"] is linpole.words.LinComb


def test_source_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "linpole" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {module}")
    assert outside == []


def test_no_module_but_poly_uses_its_private_names():
    """Packed monomials and their helpers stay inside linpole.poly: no other
    module imports a private name from it or reads one off it."""
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("poly", "linpole.poly"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "poly":
                names = [node.attr]
            else:
                continue
            leaks += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_")]
    assert leaks == []
