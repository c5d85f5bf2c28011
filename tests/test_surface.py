"""The public surface of the package: one name per object, a source tree
that imports nothing outside the standard library, and a polynomial format
that no module but poly reads."""

import ast
import re
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


LIMIT_NAMES = ("_MAX_DEGREE", "_MAX_VARIABLE", "_MAX_WEIGHT", "GENERATOR_LIMIT",
               "_MAX_FOREST_DEPTH", "_TOO_DEEP", "_check_weight", "_MAX_NESTING",
               "_MAX_POWER_BITS", "MAX_PRECISION", "MZV_BUDGET")


def _literal(node) -> bool:
    """A number written out, or arithmetic on numbers written out."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _literal(node.operand)
    return isinstance(node, ast.BinOp) and _literal(node.left) and _literal(node.right)


def test_only_errors_binds_a_limit():
    """Every limit is a value of errors.LIMITS: no other module binds a
    name to a number that is one of its values, nor keeps a name the
    per-module limits had."""
    from linpole.errors import LIMITS
    values = set(LIMITS.values())
    own = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _literal(node.value):
                if eval(compile(ast.Expression(node.value), path.name, "eval")) in values:
                    own.append(f"{path.name}:{node.lineno}")
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.FunctionDef)) and name in LIMIT_NAMES:
                own.append(f"{path.name}:{node.lineno} {name}")
    assert own == []


def test_readme_lists_every_limit():
    """The size-limits list of README's CLI section names each entry of
    errors.LIMITS with its value, and nothing else."""
    from linpole.errors import LIMITS
    text = (SRC.parent.parent / "README.md").read_text()
    section = text[text.index("- size limits:"):text.index("- exit codes:")]
    listed = {name: int(value) for name, value in
              re.findall(r"^  - `([^`]+)` (\d+)", section, re.MULTILINE)}
    assert listed == LIMITS
