import random
import time
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from linpole import (DEFAULT_Q, BudgetExceeded, InnerProduct, LinearForm, Polynomial,
                     decompose, parse_germ, poly, span, zvar)
from linpole.errors import LIMITS
from linpole.exactlin import _frame

from helpers import (assert_canonical_poly, random_form, random_germ, random_poly,
                     random_spd_gram)

x, y, z = Polynomial.variable(1), Polynomial.variable(2), Polynomial.variable(3)


def test_arith_basics():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (p - p) == Polynomial()
    assert Polynomial.constant(Fraction(3, 4)).constant_term() == Fraction(3, 4)


def test_canonical_equality():
    a = Polynomial({((1, 1), (2, 1)): 2, ((1, 2),): 1})
    b = (x * y) * 2 + x * x
    assert a == b and hash(a) == hash(b)


def test_constructor_merges_repeated_variables():
    p = Polynomial([(((1, 1), (1, 1)), 1)])
    assert p == x * x and hash(p) == hash(x * x) and repr(p) == "z1^2"
    assert repr(Polynomial({((1, 2),): 1, ((1, 1), (1, 1)): 1})) == "2*z1^2"
    assert Polynomial([(((2, 1), (1, 0), (2, 2)), 3)]) == 3 * y ** 3


def test_evaluate_and_partial():
    p = x * x * y + 3 * z
    assert p.evaluate({1: 2, 2: 3, 3: 1}) == 15
    assert p.partial(1) == 2 * x * y
    assert p.partial(3) == Polynomial.constant(3)
    assert p.partial(4) == Polynomial()


def test_substitute_and_rename():
    p = x * x + y
    assert p.substitute({1: y}) == y * y + y
    assert p.rename({1: 2, 2: 1}) == y * y + x


def test_divide_by_form():
    f = LinearForm({1: 1, 2: 1})
    p = (x + y) * (x * x + 3)
    q = p.divide_by_form(f)
    assert q == x * x + 3
    assert (x * x + 1).divide_by_form(f) is None


def test_divide_random_products():
    rng = random.Random(3)
    for _ in range(50):
        form = random_form(rng, max_var=3)
        p = random_poly(rng, max_var=3)
        prod = p * Polynomial.from_linear(form)
        assert prod.divide_by_form(form) == p


def test_collect_reassembles():
    rng = random.Random(4)
    for _ in range(40):
        p = random_poly(rng, max_var=3, max_deg=3, n_terms=5)
        v = rng.randint(1, 4)
        parts = p.collect(v)
        assert all(v not in part.support() and part for part in parts.values())
        total = Polynomial()
        for (k,), part in parts.items():
            total = total + part * Polynomial.variable(v) ** k
        assert total == p
    assert (x * x * y + 3 * z).collect(1) == {(0,): 3 * z, (2,): y}
    assert Polynomial().collect(1) == {}
    # no polynomial holds a variable past the packing limit, so its exponent is 0
    assert (x * x * y + 3 * z).collect(1, 2000, 10 ** 20) == {(0, 0, 0): 3 * z, (2, 0, 0): y}
    assert (x * y).collect(10 ** 20, 5000) == {(0, 0): x * y}


def _expanded(p, values):
    """p with each variable in values replaced, term by term through * and
    **: a reference that shares no loop with substitute_collect."""
    out = []
    for mono, c in p.terms:
        term = Polynomial.constant(c)
        for v, e in mono:
            term = term * values.get(v, Polynomial.variable(v)) ** e
        out.append(term)
    return Polynomial.sum(out)


def test_substitute_collect_matches_substitute_then_collect():
    """The one-pass grouped substitution equals substitute(...).collect(...)
    and the term-by-term expansion, grouped: on random images, on images in
    more variables than the polynomial, on the composed images of frames
    under Gram blocks, and at the packing limits, which raise as the two
    passes do."""
    rng = random.Random(3838)
    for trial in range(150):
        p = random_poly(rng, max_var=4, max_deg=3, n_terms=5) * Fraction(1, rng.randint(1, 4))
        values = {v: random_poly(rng, max_var=7, max_deg=2) * Fraction(1, rng.randint(1, 5))
                  for v in rng.sample(range(1, 7), rng.randint(0, 4))}
        vs = tuple(rng.sample([*range(1, 9), 2000, 10 ** 20], rng.randint(0, 3)))
        parts = p.substitute_collect(values, *vs)
        assert parts == p.substitute(values).collect(*vs) == _expanded(p, values).collect(*vs)
        assert all(part and not set(vs) & set(part.support()) for part in parts.values())
        for part in parts.values():
            assert_canonical_poly(part)
    for trial in range(60):  # the images _split_simplex builds
        gram = DEFAULT_Q if trial % 3 == 0 else random_spd_gram(rng, 3, rational=trial % 2 == 0)
        forms = tuple(random_form(rng, 4) for _ in range(rng.randint(1, 3)))
        if span(forms).dim < len(forms):
            continue
        p = random_poly(rng, max_var=4, max_deg=3, n_terms=5)
        variables = tuple(sorted(set(p.support()).union(*(f.coeffs for f in forms))))
        t = [v for v in range(1, 20) if v not in variables][:len(forms)]
        values = {v: Polynomial.linear([*((t[j], x) for j, x in t_row), *z_row], den)
                  for v, (t_row, z_row, den) in zip(variables, _frame(gram, forms, variables))}
        parts = p.substitute_collect(values, *t)
        assert parts == p.substitute(values).collect(*t) == _expanded(p, values).collect(*t)
        for part in parts.values():  # a polar numerator: q-orthogonal to the forms
            assert all(gram(g, f) == 0 for g in part.dependence_space().basis for f in forms)
    # a high power of an image with grouped terms costs about its size: the
    # chain of the image's own powers took 1.6 s, the binomial 0.06 s (2-core
    # container, CPython 3.11)
    image = Polynomial.variable(9) * 2 + y - z * 3
    start = time.perf_counter()
    parts = (x ** 200).substitute_collect({1: image}, 9)
    assert time.perf_counter() - start < 1
    assert len(parts) == 201 and parts[(200,)] == Polynomial.constant(2 ** 200)
    assert parts[(1,)] == (y - z * 3) ** 199 * 400 and parts[(0,)] == (y - z * 3) ** 200
    far = Polynomial.variable(LIMITS["variable index"])
    for p, values, vs in ((x ** 40000, {1: (x + y) ** 2}, ()),
                          (x ** 33000 * y, {1: (y + z) ** 2}, (3,)),
                          (x * y, {1: far ** 65535}, (2,))):
        with pytest.raises(BudgetExceeded) as one_pass:
            p.substitute_collect(values, *vs)
        with pytest.raises(BudgetExceeded) as two_passes:
            p.substitute(values).collect(*vs)
        assert str(one_pass.value) == str(two_passes.value)
        assert str(one_pass.value).startswith("total degree ")
    with pytest.raises(BudgetExceeded, match="^variable index 1025 exceeds the limit 1024$"):
        x.substitute_collect({1: Polynomial.variable(LIMITS["variable index"] + 1)})
    assert (x * y).substitute_collect({1: far * far}, far.support()[0], 10 ** 20) == {
        (2, 0): y}


def test_collect_and_partial_reject_bad_variables():
    """Slot 0 of a packed monomial is its degree, so index 0 is no variable."""
    p = x * x * y + 3 * z
    for bad in ((1, 1), (0,), (2, -1)):
        with pytest.raises(ValueError):
            p.collect(*bad)
    with pytest.raises(ValueError):
        p.partial(0)


def test_homogeneous_parts_reassemble():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(rng, max_var=3, max_deg=3, n_terms=5)
        parts = [p.homogeneous_part(d) for d in range(p.degree() + 2)]
        assert all(part.degree() == d for d, part in enumerate(parts) if part)
        assert sum(parts, Polynomial()) == p and not parts[-1]
    assert (x * x * y + 3 * z + 2).homogeneous_part(1) == 3 * z


def test_dependence_space_examples():
    p = Polynomial.from_linear(LinearForm({1: 1, 2: 1})) ** 2 + z
    assert p.dependence_space() == span([zvar(1) + zvar(2), zvar(3)])
    assert (x * x).dependence_space() == span([zvar(1)])
    assert Polynomial.constant(5).dependence_space().dim == 0
    assert Polynomial().dependence_space().dim == 0


def test_dependence_space_is_minimal():
    # product of two aligned forms depends on one direction only
    f = Polynomial.from_linear(LinearForm({1: 1, 2: -1}))
    p = f * f + f
    assert p.dependence_space() == span([zvar(1) - zvar(2)])


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3))
def test_power_matches_repeated_multiplication(a, b, k):
    p = Polynomial.constant(a) + Polynomial.variable(1) * b
    expected = Polynomial.constant(1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


def test_every_operation_keeps_canonical_form():
    rng = random.Random(12)
    for _ in range(60):
        p, r, s = (random_poly(rng, max_var=4, max_deg=3, n_terms=6) for _ in range(3))
        form = random_form(rng, max_var=4)
        vs = rng.sample(range(1, 6), rng.randint(1, 3))
        results = [p + r, p - r, p - p, -p, p * r, p * Fraction(rng.randint(-3, 3), 2),
                   p + 3, p ** rng.randint(0, 3), p.partial(rng.randint(1, 4)),
                   p.substitute({vs[0]: r, rng.randint(1, 5): s}),
                   p.rename({rng.randint(1, 4): rng.randint(1, 5) for _ in range(3)}),
                   (p * Polynomial.from_linear(form)).divide_by_form(form),
                   p.homogeneous_part(rng.randint(0, 4)), *p.collect(*vs).values()]
        quot = p.divide_by_form(form)
        results += [quot] if quot is not None else []
        for res in results:
            assert_canonical_poly(res)
    gram = InnerProduct([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    for _ in range(25):
        d = decompose(random_germ(rng, max_var=3, max_factors=4), rng.choice([DEFAULT_Q, gram]))
        for res in [d.holomorphic, *(t.numerator for t in d.terms)]:
            assert_canonical_poly(res)


def test_equality_hash_repr_ignore_insertion_order():
    rng = random.Random(13)
    for _ in range(40):
        items = list(random_poly(rng, max_var=4, max_deg=3, n_terms=8).terms)
        a = Polynomial(dict(items))
        b = Polynomial(dict(reversed(items)))
        r = random_poly(rng, max_var=4)
        for u, w in ((a, b), (a + r, r + b), (a * r, r * b)):
            assert u == w and hash(u) == hash(w) and repr(u) == repr(w)
            assert u.terms == w.terms


def test_terms_in_dense_graded_lexicographic_order():
    """Reference order: total degree, then the exponents along z1..z_top, top
    the polynomial's largest variable, a larger exponent first."""
    rng = random.Random(29)
    for _ in range(400):
        p = random_poly(rng, max_var=rng.randint(1, 7), max_deg=3, n_terms=8)
        top = max(p.support(), default=0)

        def dense(mono):
            exps = dict(mono)
            return sum(exps.values()), [-exps.get(v, 0) for v in range(1, top + 1)]

        monos = [m for m, _ in p.terms]
        assert monos == sorted(monos, key=dense), p


def test_packing_limits_raise_budget_exceeded(monkeypatch):
    """Each limit at a small patched value, in the table and where poly
    binds it: a result past it raises before anything is packed, and one at
    it is built."""
    for name, bound, value in (("total degree", "_DEGREES", 6),
                               ("variable index", "_VARIABLES", 5)):
        monkeypatch.setitem(LIMITS, name, value)
        monkeypatch.setattr(poly, bound, value)
    assert (x + y) ** 3 * (x - 1) ** 3 == ((x + y) * (x - 1)) ** 3
    assert Polynomial({((1, 2), (2, 4)): 1}).degree() == 6
    assert (x * y * z).substitute({1: y * y, 2: y * y * y}) == y ** 5 * z
    assert Polynomial.variable(5).support() == (5,)
    for build in (lambda: Polynomial({((1, 3), (2, 4)): 1}), lambda: (x + 1) ** 7,
                  lambda: x ** 4 * (y ** 3 + 1), lambda: (x * y).substitute({1: z ** 6}),
                  lambda: Polynomial.variable(6), lambda: x.rename({1: 6}),
                  lambda: Polynomial.from_linear(LinearForm({1: 1, 6: 2}))):
        with pytest.raises(BudgetExceeded, match="exceeds the limit"):
            build()


def test_packing_limits_hold_without_carry():
    """At the real limits a slot is full but carries nothing."""
    degree, variable = LIMITS["total degree"], LIMITS["variable index"]
    top = x ** degree
    assert top.terms == ((((1, degree),), 1),)
    assert (x ** 40000 * y ** 25535).terms == ((((1, 40000), (2, 25535)), 1),)
    far = Polynomial.variable(variable)
    assert (far * far).terms == ((((variable, 2),), 1),)
    for build, message in ((lambda: x ** (degree + 1),
                            "total degree 65536 exceeds the limit 65535"),
                           (lambda: x ** 40000 * y ** 30000,
                            "total degree 70000 exceeds the limit 65535"),
                           (lambda: Polynomial.variable(variable + 1),
                            "variable index 1025 exceeds the limit 1024")):
        with pytest.raises(BudgetExceeded) as exc:
            build()
        assert str(exc.value) == message


def test_power_of_a_trinomial_is_fast():
    """(z1+z2+1)^80 has 3321 terms; on packed monomials with integer
    coefficients the parser builds it in well under the gate."""
    start = time.perf_counter()
    g = parse_germ("(z1+z2+1)^80")
    assert time.perf_counter() - start < 2
    assert len(g.numerator.terms) == 3321
    assert g.numerator.evaluate({1: 1, 2: 1}) == 3 ** 80
