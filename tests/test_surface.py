"""The public surface of the package: one name per object, a source tree
that imports nothing outside the standard library, and a polynomial format
that no module but poly reads."""

import ast
import os
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import linpole

from helpers import fast_paths

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


def test_readme_table_lists_every_fast_path():
    """The first column of README's table "Fast paths and what pays for
    them" names each cache and each `_trusted` classmethod of the source
    (helpers.fast_paths), and a row that is kept names no other: a fast
    path neither lands unmeasured nor stays listed once it is gone."""
    text = (SRC.parent.parent / "README.md").read_text()
    table = text[text.index("| fast path | paid by |"):]
    table = table[:table.index("\n\n")]
    firsts = [row.strip().removeprefix("| ").split(" | ")[0] for row in table.splitlines()[2:]]
    kept = [cell for cell in firsts if not cell.startswith("removed:")]
    named = {name for cell in kept for name in re.findall(r"`([\w.]+)`", cell)}
    paths = fast_paths()
    assert sorted(set(paths) - named) == []
    listed = {name for cell in kept
              for name in re.findall(r"`([\w.]+)` memo", cell)
              + re.findall(r"`(\w+\._trusted)`", cell)}
    assert sorted(listed - set(paths)) == []


def pickle_samples() -> list:
    """One or more instances of every value type, and of the other frozen
    types, built the same way in any process."""
    from linpole import (DEFAULT_Q, Forest, ForestNode, FractionSpec, GaloisTransform,
                         GermCombo, InnerProduct, LinearForm, Polynomial, X0, chen_lmap,
                         decompose, integer_alphabet, parse_germ, span, speer_lmap,
                         subset_alphabet, weak_chen_lmap, zvar)
    germ = parse_germ("(z1^2 + 3*z2)/((z1 + z2)^2*(z1 - z2)*z3)")
    parts = decompose(germ, InnerProduct([[2, 1], [1, 2]]))
    chen = FractionSpec((2, 1), (1, 2), chen_lmap())
    speer = FractionSpec((1, 2), ({1, 2}, {3}), speer_lmap())
    return [zvar(1), LinearForm({1: Fraction(1, 2), 3: -2}), DEFAULT_Q,
            InnerProduct([[2, 1], [1, 2]]), span([zvar(1), zvar(1) + zvar(2)]),
            Polynomial({((1, 2), (4, 1)): Fraction(3, 5), (): 1}), germ, parts,
            *parts.terms, *(t.simplex for t in parts.terms), chen, speer,
            FractionSpec((1,), (3,), weak_chen_lmap()),
            GermCombo([(Polynomial.constant(2), [chen]), (Polynomial.variable(2), [])]),
            ForestNode({1, 2}, [ForestNode({1}, exponent=2)]),
            Forest([ForestNode({1, 2}), ForestNode({3})]),
            GaloisTransform({FractionSpec((2,), (1,), chen_lmap()): Fraction(1, 3)}),
            chen_lmap(), weak_chen_lmap(), speer_lmap(), integer_alphabet(), subset_alphabet(),
            X0]


def test_every_value_type_survives_pickle():
    """Values pickled in another process load equal, with equal hashes
    (an L-map hashes by identity, so a hash is computed again on loading),
    and the shared L-maps, alphabets and x0 load as themselves."""
    from linpole.exactlin import _Frozen, _Value
    samples = pickle_samples()

    def subclasses(cls):
        return {cls} | {k for sub in cls.__subclasses__() for k in subclasses(sub)}
    assert subclasses(_Frozen) - {_Frozen, _Value} <= {type(x) for x in samples}
    code = ("import pickle, sys; from test_surface import pickle_samples; "
            "sys.stdout.buffer.write(pickle.dumps(pickle_samples()))")
    path = os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="random"))
    for loaded in (pickle.loads(child.stdout), pickle.loads(pickle.dumps(samples))):
        for ours, theirs in zip(samples, loaded, strict=True):
            assert type(theirs) is type(ours)
            assert repr(theirs) == repr(ours)
            if isinstance(ours, _Value):
                assert theirs == ours
                if ours.__hash__ is not None:
                    assert hash(theirs) == hash(ours), ours
            elif type(ours).__name__ in ("LMap", "Alphabet", "_X0"):
                assert theirs is ours
    assert pickle.loads(pickle.dumps(linpole.chen_lmap())) is linpole.chen_lmap()
    assert pickle.loads(pickle.dumps(linpole.speer_lmap())) is linpole.speer_lmap()
