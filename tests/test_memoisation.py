"""The memoised exact linear algebra: bounded caches whose answers do not
depend on what was asked before."""

import copy
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import linpole
from linpole import (DEFAULT_Q, LinearForm, Polynomial, dependence, exactlin,
                     germs, is_local_pair, iter_eval, parse_germ, span)
from linpole.exactlin import _frame

from helpers import fast_paths, random_form, random_germ, random_poly, random_spd_gram

# Prints, for each germ under each inner product, the repr and JSON of its
# decomposition and dependence space, its locality with the next germ and
# iter_eval on z1..z4, then the locality verdict of each combo.
SCRIPT = """
import json, sys
from linpole import (DEFAULT_Q, GermCombo, InnerProduct, decompose, dependence,
                     is_local_pair, iter_eval, parse_germ, parse_spec)
from linpole.errors import LinpoleError
from linpole.serialize import decomposition_to_json, subspace_to_json

def report(texts, combos, gram):
    out = []
    gs = [parse_germ(t) for t in texts]
    for q in (DEFAULT_Q, InnerProduct(gram)):
        for g, h in zip(gs, gs[1:] + gs[:1]):
            d, s = decompose(g, q), dependence(g, q)
            out.append(repr(d) + json.dumps(decomposition_to_json(d)))
            out.append(repr(s) + json.dumps(subspace_to_json(s)))
            out.append(repr(is_local_pair(g, h, q)))
            try:
                out.append(repr(iter_eval(g, [1, 2, 3, 4])))
            except LinpoleError as exc:
                out.append(type(exc).__name__ + str(exc))
        for holo, specs in combos:
            c = GermCombo([(parse_germ(holo).numerator, [parse_spec(x) for x in specs])])
            try:
                c.validate_locality(q)
                out.append("local")
            except LinpoleError as exc:
                out.append(str(exc))
    return out

if __name__ == "__main__":
    print("\\n".join(report(*json.loads(sys.stdin.read()))))
"""


def corpus(seed, n_germs=20, n_combos=20):
    rng = random.Random(seed)
    texts = [repr(random_germ(rng, max_var=3, max_factors=3, max_exp=2))
             for _ in range(n_germs)]
    combos = []
    for _ in range(n_combos):
        letters = rng.sample(range(1, 5), rng.randint(1, 3))
        specs = [f"f[{','.join(str(rng.randint(1, 2)) for _ in letters)};"
                 f"{','.join(map(str, letters))}]"]
        holo = repr(random_poly(rng, max_var=6, max_deg=1, n_terms=2))
        combos.append((holo, specs))
    gram = random_spd_gram(rng, 3).gram
    return texts, combos, [[str(x) for x in row] for row in gram]


def run_report(data):
    namespace = {"__name__": "in-process"}
    exec(SCRIPT, namespace)
    return namespace["report"](*data)


def test_memoised_outputs_independent_of_call_history():
    """A fresh interpreter and one warmed on other germs and combos print the
    same bytes, under the default and a non-diagonal inner product."""
    data = corpus(71)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    fresh = subprocess.run([sys.executable, "-c", SCRIPT], input=json.dumps(data),
                           env=env, capture_output=True, text=True, timeout=300, check=True)
    for seed in (72, 73):  # warm every cache on other inputs first
        run_report(corpus(seed))
    warm = run_report(data)
    assert len(warm) == 2 * 4 * 20 + 2 * 20
    assert fresh.stdout.splitlines() == warm
    assert any(line == "local" for line in warm)
    assert any(line.startswith("coefficient") for line in warm)


def reference_rref(forms):
    """Nonzero rows of sympy's RREF, as linear forms."""
    width = max((max(f.coeffs) for f in forms if f), default=0)
    if not width:
        return ()
    rows = [[sympy.Rational(f[v].numerator, f[v].denominator) for v in range(1, width + 1)]
            for f in forms]
    reduced, _pivots = sympy.Matrix(rows).rref()
    out = []
    for i in range(reduced.rows):
        row = {v + 1: Fraction(int(x.p), int(x.q)) for v, x in enumerate(reduced.row(i)) if x}
        if row:
            out.append(LinearForm(row))
    return tuple(out)


def test_span_matches_reference_rref():
    rng = random.Random(81)
    for _ in range(150):
        forms = [random_form(rng, max_var=5) for _ in range(rng.randint(0, 5))]
        if forms and rng.random() < 0.4:  # repeated and proportional inputs
            forms.append(rng.choice(forms).scale(rng.choice([1, -2, Fraction(1, 3)])))
            forms.insert(rng.randrange(len(forms)), rng.choice(forms))
        if rng.random() < 0.2:
            forms.append(LinearForm())
        want = reference_rref(forms)
        got = span(forms)
        assert got.basis == want
        assert span(f for f in forms) is got  # a generator reaches the same entry
        assert span(iter(forms)) == got and repr(span(tuple(forms))) == repr(got)


def test_every_cache_is_bounded():
    """Every cache object in a module or class namespace of linpole holds a
    bounded number of entries, and these caches are exactly the ones that
    README's fast-path table must list (helpers.fast_paths reads them from
    the source), so a cache the source scan misses fails here."""
    caches = {}
    for info in pkgutil.iter_modules(linpole.__path__):
        mod = importlib.import_module(f"linpole.{info.name}")
        scopes = [vars(mod)] + [vars(cls) for cls in vars(mod).values()
                                if isinstance(cls, type) and cls.__module__ == mod.__name__]
        caches.update((f"{obj.__module__}.{obj.__qualname__}", obj) for scope in scopes
                      for obj in scope.values() if hasattr(obj, "cache_info"))
    assert set(caches) == {f"{module}.{name}" for name, (module, kind) in fast_paths().items()
                           if kind == "cache"}
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


def _linpole_classes():
    for info in pkgutil.iter_modules(linpole.__path__):
        mod = importlib.import_module(f"linpole.{info.name}")
        yield from (cls for cls in vars(mod).values()
                    if isinstance(cls, type) and cls.__module__ == mod.__name__)


def test_value_types_are_frozen():
    """Every value type is a _Frozen: it keys memos, so no assignment or
    deletion may change it, and a copy is the object itself.  LinComb is
    the one mutable type that compares by value; it keys no memo."""
    frozen = exactlin._Frozen
    assert [cls.__name__ for cls in _linpole_classes() if cls is not frozen
            and ("__setattr__" in vars(cls) or "__delattr__" in vars(cls))] == []
    assert [cls.__name__ for cls in _linpole_classes() if "__eq__" in vars(cls)
            and cls is not linpole.LinComb and not issubclass(cls, frozen)] == []
    g = parse_germ("z3/(z1*(z1+z2))")
    d = germs.decompose(g, DEFAULT_Q)
    spec = linpole.parse_spec("f[2,1;2,1]")
    node = linpole.ForestNode({1, 2}, [linpole.ForestNode({1})])
    values = [linpole.zvar(1), DEFAULT_Q, span([linpole.zvar(1)]), Polynomial.variable(1),
              g, d.terms[0].simplex, d.terms[0], d, linpole.chen_lmap(), spec, node,
              linpole.Forest([node]), linpole.GaloisTransform({linpole.parse_spec("f[2;1]"): 1}),
              linpole.GermCombo([(1, (spec,))]), linpole.integer_alphabet()]
    assert len({type(x) for x in values}) == 15
    for x in values:
        slot = type(x).__slots__[0]
        before = getattr(x, slot)
        for name in (slot, "extra"):
            with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
                setattr(x, name, None)
            with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
                delattr(x, name)
        assert getattr(x, slot) is before
        assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert spec.germ() == parse_germ("1/(z1*(z1+z2)^2)")


def _rebuilt(x):
    """An equal copy of x made afresh by the validating constructors, value
    types inside it included; other objects, such as an L-map, are kept."""
    if isinstance(x, Polynomial):
        return Polynomial(x.terms)
    if isinstance(x, exactlin._Value):
        return type(x)(*(_rebuilt(getattr(x, name)) for name in type(x)._fields))
    if isinstance(x, tuple):
        return tuple(map(_rebuilt, x))
    if isinstance(x, dict):
        return {k: _rebuilt(v) for k, v in x.items()}
    return x


def test_value_types_compare_by_their_fields():
    """Every _Value type takes == from the base, holds its declared fields as
    its public slots, and compares by them: a value rebuilt afresh through
    its constructor is equal and hashes alike, and no object of another
    type, nor a look-alike holding the same fields, equals it."""
    g = parse_germ("z3/(z1*(z1+z2))")
    d = germs.decompose(g, DEFAULT_Q)
    spec = linpole.parse_spec("f[2,1;2,1]")
    values = [LinearForm({1: 1, 3: Fraction(-2, 3)}), linpole.InnerProduct([[2, 1], [1, 2]]),
              span([linpole.zvar(1), linpole.zvar(2)]),
              Polynomial.variable(1) * Fraction(1, 2) + 1, g, d.terms[0].simplex, d.terms[0], d,
              spec,
              linpole.GermCombo([(Polynomial.variable(2) + 3, (spec,)), (1, ())])]
    value_types = {cls for cls in _linpole_classes()
                   if issubclass(cls, exactlin._Value) and cls is not exactlin._Value}
    assert {type(x) for x in values} == value_types and len(values) == len(value_types)
    for x in values:
        cls = type(x)
        assert "__eq__" not in vars(cls), cls
        assert sorted(s for s in cls.__slots__ if not s.startswith("_")) == sorted(cls._fields)
        y = _rebuilt(x)
        assert y is not x and y == x and not y != x, cls
        if cls.__hash__ is not None:
            assert hash(y) == hash(x), cls
        fields = [getattr(x, name) for name in cls._fields]
        look_alike = types.SimpleNamespace(**dict(zip(cls._fields, fields)))
        for other in [v for v in values if type(v) is not cls] + [look_alike, *fields]:
            assert x != other and other != x, (cls, other)
    assert linpole.GermCombo.__hash__ is None


def test_frame_is_memoised_and_immutable():
    rng = random.Random(82)
    q = random_spd_gram(rng, 3)
    forms = (LinearForm({1: 1, 2: 1}), LinearForm({2: 1, 3: -2}))
    frame = _frame(q, forms, (1, 2, 3, 4))
    assert _frame(q, tuple(list(forms)), (1, 2, 3, 4)) is frame
    assert type(frame) is tuple and all(type(t_row) is tuple and type(z_row) is tuple
                                        for t_row, z_row, _den in frame)
    for _t_row, z_row, _den in frame:  # q-orthogonal to every form
        m = LinearForm(z_row)
        assert all(q(m, f) == 0 for f in forms)


def test_dependence_space_is_shared_and_correct():
    z1, z2 = Polynomial.variable(1), Polynomial.variable(2)
    p = (z1 + z2) ** 3 - (z1 + z2)
    assert p.dependence_space() is ((z1 + z2) ** 3 - (z1 + z2)).dependence_space()
    assert p.dependence_space() == span([LinearForm({1: 1, 2: 1})])
    g = parse_germ("(z1+z2)/(z1*(z1-z2))")
    assert dependence(g) is dependence(parse_germ("(z1+z2)/(z1*(z1-z2))"), DEFAULT_Q)
    assert not is_local_pair(g, g)
    assert repr(iter_eval(parse_germ("z3/(z1+z2)+1"), [1, 2, 3])) == "Fraction(1, 1)"
