"""sympy as an independent oracle for the exact linear algebra and the
polynomial arithmetic.

span, orth_decompose, find_circuit, the positive-definiteness check of
InnerProduct and Polynomial.dependence_space all run on one elimination
routine in exactlin; these tests check each against sympy's own rref, solve,
det and nullspace, Polynomial.divide_by_form against sympy's div, the
other Polynomial operations against sympy's expand, subs, diff and Poly,
and iter_eval against its definition, taken in sympy's arithmetic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from linpole import (DEFAULT_Q, InnerProduct, LinearForm, Polynomial, RationalGerm,
                     find_circuit, iter_eval, orth_decompose, span)

from helpers import (assert_canonical_form, assert_canonical_poly, random_form, random_poly,
                     random_spd_gram)

NV = 4


def to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def vector(form, nv=NV):
    return [form[v] for v in range(1, nv + 1)]


def sympy_rref_rows(rows, nv=NV):
    """Nonzero rows of the reduced row-echelon form, as Fraction lists."""
    if not rows:
        return []
    m = sympy.Matrix([[to_sympy(x) for x in r] for r in rows])
    reduced, pivots = m.rref()
    return [[from_sympy(reduced[i, j]) for j in range(nv)] for i in range(len(pivots))]


def test_span_matches_sympy_rref():
    rng = random.Random(11)
    for _ in range(150):
        forms = [random_form(rng, NV).scale(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 6))]
        basis = span(forms).basis
        assert [vector(f) for f in basis] == sympy_rref_rows([vector(f) for f in forms]), forms
        for f in basis:
            assert_canonical_form(f)


def test_orth_decompose_matches_sympy_solve():
    """Integer trials, then rational forms, targets and Gram blocks, whose
    denominators the integer elimination must clear."""
    rng = random.Random(12)
    for trial in range(160):
        rational = trial >= 80
        q = DEFAULT_Q if trial % 2 else random_spd_gram(rng, rng.randint(1, 3), rational)
        u = span([random_form(rng, NV, rational=rational) for _ in range(rng.randint(1, 3))])
        f = random_form(rng, NV, rational=rational)
        xs = sympy.symbols(f"x0:{u.dim}")
        a = [sum(x * to_sympy(b[v]) for x, b in zip(xs, u.basis))
             for v in range(1, NV + 1)]
        n = q.block_size
        g = sympy.Matrix(NV, NV, lambda i, j: to_sympy(q.gram[i][j]) if i < n and j < n
                         else int(i == j))
        rest = sympy.Matrix([to_sympy(f[v]) - a[v - 1] for v in range(1, NV + 1)])
        eqs = [(sympy.Matrix([vector(b)]).applyfunc(to_sympy) * g * rest)[0]
               for b in u.basis]
        sol = sympy.solve(eqs, xs, dict=True)
        assert len(sol) == 1
        expected = [from_sympy(sympy.sympify(ai).subs(sol[0])) for ai in a]
        ours, rest_form = orth_decompose(q, f, u)
        assert vector(ours) == expected
        assert ours + rest_form == f
        for form in (ours, rest_form, *u.basis):
            assert_canonical_form(form)


def columns(forms):
    """The matrix whose columns are the forms' coefficient vectors."""
    return sympy.Matrix([[to_sympy(x) for x in vector(f)] for f in forms]).T


def test_find_circuit_matches_sympy_nullspace():
    """The circuit is the kernel vector of the shortest dependent prefix,
    scaled to -1 on its lexicographically largest form."""
    rng = random.Random(17)
    kinds = set()
    for trial in range(150):
        forms = [random_form(rng, NV, rational=True) for _ in range(rng.randint(1, 4))]
        if trial % 3 == 0:  # a proportional copy
            k = Fraction(rng.choice([-3, -1, 2]), rng.choice([1, 2, 5]))
            forms.insert(rng.randint(0, len(forms)), rng.choice(forms).scale(k))
        elif trial % 3 == 1:  # a rational combination of two forms
            a, b = rng.sample(forms, 2) if len(forms) > 1 else (forms[0], forms[0])
            forms.append(a.scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)))
                         - b.scale(Fraction(rng.randint(1, 3), rng.randint(1, 4))))
            if not forms[-1]:
                forms.pop()
        ours = find_circuit(forms)
        prefix = next((m for m in range(1, len(forms) + 1)
                       if columns(forms[:m]).rank() < m), None)
        if prefix is None:
            assert ours is None, forms
            kinds.add("independent")
            continue
        [kernel] = columns(forms[:prefix]).nullspace()
        members = tuple(i for i in range(prefix) if kernel[i] != 0)
        largest = max(members, key=lambda i: forms[i].key())
        expected = tuple(from_sympy(-kernel[i] / kernel[largest]) for i in members)
        assert ours == (members, expected), forms
        assert all(type(c) is Fraction for c in ours[1])
        kinds.add(len(members))
    assert kinds >= {"independent", 2, 3}


def random_symmetric(rng, n):
    kind = rng.choice(("spd", "gram", "rank-one", "random"))
    if kind == "spd":
        return [list(r) for r in random_spd_gram(rng, n).gram]
    if kind == "gram":  # A^T A: positive semidefinite, often singular
        a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n - 1)]
        return [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
    if kind == "rank-one":
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        return [[v[i] * v[j] for j in range(n)] for i in range(n)]
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_gram_check_matches_sympy_leading_minors():
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        g = random_symmetric(rng, n)
        m = sympy.Matrix([[to_sympy(Fraction(x)) for x in r] for r in g])
        expected = all(m[:k, :k].det() > 0 for k in range(1, n + 1))
        try:
            InnerProduct(g)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected, g
        seen.add((expected, m.det() == 0))
    assert seen == {(True, False), (False, True), (False, False)}


def power_product(rng):
    """Products of powers of a few forms: dependence spaces of every dimension."""
    forms = [random_form(rng, NV) for _ in range(rng.randint(1, 3))]
    p = Polynomial.constant(rng.randint(1, 3))
    for f in forms:
        p = p * Polynomial.from_linear(f) ** rng.randint(1, 2)
    return p + Polynomial.from_linear(forms[0]) ** 2


def sympy_poly(p, zs):
    return sum((to_sympy(c) * sympy.Mul(*(zs[v - 1] ** e for v, e in m)) for m, c in p.terms),
               sympy.Integer(0))


def sympy_dependence_rows(p):
    """Annihilator of the kernel of the partial-derivative coefficient matrix."""
    zs = sympy.symbols(f"z1:{NV + 1}")
    expr = sympy_poly(p, zs)
    partials = [sympy.Poly(sympy.diff(expr, z), *zs).as_dict() for z in zs]
    monomials = sorted({m for d in partials for m, c in d.items() if c})
    if not monomials:
        return []
    matrix = sympy.Matrix([[d.get(m, 0) for d in partials] for m in monomials])
    kernel = matrix.nullspace()
    if not kernel:
        return sympy_rref_rows([[int(i == j) for j in range(NV)] for i in range(NV)])
    ann = sympy.Matrix.hstack(*kernel).T.nullspace()
    return sympy_rref_rows([[from_sympy(x) for x in w] for w in ann])


def test_dependence_space_matches_sympy_nullspace():
    rng = random.Random(14)
    dims = set()
    for trial in range(120):
        p = random_poly(rng, NV) if trial % 2 else power_product(rng)
        ours = p.dependence_space()
        assert [vector(f) for f in ours.basis] == sympy_dependence_rows(p), p
        dims.add(ours.dim)
    assert dims >= {1, 2, 3}


def hyperplane_point(form, variables):
    """The point z_w = a*w (w != v), z_v = -sum(c_w * w) of the hyperplane
    sum(c_w z_w) = 0, with v its smallest variable and a = c_v."""
    v = min(form.coeffs)
    a = form.coeffs[v]
    point = {w: a * w for w in variables}
    point[v] = -sum(c * w for w, c in form.coeffs.items() if w != v)
    return point


def test_divide_by_form_matches_sympy_div():
    rng = random.Random(15)
    zs = sympy.symbols(f"z1:{NV + 1}")
    outcomes = set()

    def check(p, form):
        quotient, remainder = sympy.div(sympy_poly(p, zs),
                                        sympy_poly(Polynomial.from_linear(form), zs),
                                        *zs, domain=sympy.QQ)
        ours = p.divide_by_form(form)
        if remainder == 0:
            assert ours is not None and sympy.expand(sympy_poly(ours, zs) - quotient) == 0, (p, form)
        else:
            assert ours is None, (p, form)
        return ours

    for trial in range(150):
        form = random_form(rng, NV)
        v = min(form.coeffs)
        # negative and fractional leading coefficients
        form = form.scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 7])))
        p = random_poly(rng, NV, max_deg=3, n_terms=4)
        if trial % 5 == 0:  # free of z_v
            p = Polynomial([(m, c) for m, c in p.terms if v not in dict(m)])
        elif trial % 2 == 0:
            p = p * Polynomial.from_linear(form) ** rng.randint(1, 2)
        ours = check(p, form)
        outcomes.add((ours is None, trial % 5 == 0, bool(p)))
    assert outcomes >= {(True, True, True), (False, False, True), (True, False, True)}

    # The zero and constant numerators, a numerator free of one of the form's
    # variables, and numerators that vanish on the hyperplane at one point
    # without being divisible.
    rng = random.Random(16)
    vanishing = 0
    for _ in range(60):
        form = random_form(rng, NV).scale(Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 5])))
        lin = Polynomial.from_linear(form)
        p = random_poly(rng, NV, max_deg=2, n_terms=3)
        assert check(Polynomial(), form) == Polynomial()
        assert check(Polynomial.constant(rng.randint(1, 9)), form) is None
        w = rng.choice(form.support())
        free = Polynomial([(m, c) for m, c in p.terms if w not in dict(m)])
        assert check(free, form) == (None if free else Polynomial())
        assert check(p * lin, form) == p
        # k(point) = 0 for a form k not proportional to L, and r(point) != 0,
        # so L cannot divide k * r (L is prime) although k * r vanishes there.
        point = hyperplane_point(form, range(1, NV + 1))
        ks = {u: Fraction(rng.randint(-3, 3)) for u in {*form.coeffs, rng.randint(1, NV)}}
        u0 = next((u for u in ks if point[u]), None)
        if u0 is None:
            continue
        ks[u0] = -sum(c * point[u] for u, c in ks.items() if u != u0) / point[u0]
        k = LinearForm(ks)
        r = p + rng.randint(1, 5)
        if not k or k.primitive()[0] == form.primitive()[0] or not r.evaluate(point):
            continue
        num = Polynomial.from_linear(k) * r
        if not set(form.coeffs) <= set(num.support()):
            continue
        assert not num.evaluate(point)
        assert check(num, form) is None
        assert check(num * lin, form) == num
        vanishing += 1
    assert vanishing >= 20


def sympy_divide(p, form):
    """divide_by_form's answer, checked against sympy's div over every
    variable of p and the form, and checked canonical when it divides."""
    variables = sorted({*p.support(), *form.support()})
    zs = dict(zip(variables, sympy.symbols(f"z:{len(variables)}")))

    def expr(poly):
        return sum((to_sympy(c) * sympy.Mul(*(zs[v] ** e for v, e in m)) for m, c in poly.terms),
                   sympy.Integer(0))

    quotient, remainder = sympy.div(expr(p), expr(Polynomial.from_linear(form)),
                                    *zs.values(), domain=sympy.QQ)
    ours = p.divide_by_form(form)
    if remainder == 0:
        assert ours is not None, (p, form)
        assert_canonical_poly(ours)
        assert sympy.expand(expr(ours) - quotient) == 0, (p, form, ours)
    else:
        assert ours is None, (p, form)
    return ours


Z = {v: Polynomial.variable(v) for v in (1, 2, 3, 4, 1000, 1001)}
P = Z[1] ** 2 * Z[3] - 3 * Z[2] * Z[3] + Fraction(1, 2)


def divides_exactly(form):
    """Products with the form and with its square divide; a product plus a
    constant, or plus z_v (v the form's smallest variable), does not."""
    lin = Polynomial.from_linear(form)
    for num in (P, P * Fraction(5, 6), 7 * Z[2] - 3):
        assert sympy_divide(num * lin, form) == num
        assert sympy_divide(num * lin + 1, form) is None
        assert sympy_divide(num * lin + Z[min(form.coeffs)], form) is None
        assert sympy_divide(num * lin ** 2 * Fraction(2, 9), form) == num * lin * Fraction(2, 9)


def test_divide_by_form_non_primitive_rows():
    """A row's content is folded into the quotient's denominator."""
    for form in (LinearForm({1: 2, 2: 2}), LinearForm({1: 6, 3: -4}),
                 LinearForm({1: -4, 2: 10, 4: 6})):
        divides_exactly(form)


def test_divide_by_form_fractional_coefficients():
    """A row's denominator is folded into the quotient's numerators."""
    for form in (LinearForm({1: Fraction(2, 3), 2: Fraction(-1, 4)}),
                 LinearForm({1: Fraction(-3, 5), 3: Fraction(9, 10), 4: 3})):
        divides_exactly(form)


def test_divide_by_form_numerators_over_a_denominator():
    form = LinearForm({1: 1, 2: -3})
    lin = Polynomial.from_linear(form)
    for num in (P * Fraction(1, 6), (Z[1] + Fraction(1, 3)) * lin * Fraction(7, 4)):
        assert num.den > 1
        sympy_divide(num, form)
        assert sympy_divide(num * lin, form) == num


def test_divide_by_form_high_variables():
    form = LinearForm({1000: 1, 1001: 1})
    lin = Polynomial.from_linear(form)
    assert sympy_divide(Z[1000] ** 2 - Z[1001] ** 2, form) == Z[1000] - Z[1001]
    assert sympy_divide(lin * (Z[1001] - 2 * Z[3]), form) == Z[1001] - 2 * Z[3]
    assert sympy_divide(Z[1000] ** 2 + Z[1001] ** 2, form) is None
    assert sympy_divide(Z[1000] ** 2 * Z[2] + Z[1001] * lin, form) is None
    # a form with a variable past the variable index limit divides no polynomial
    for form in (LinearForm({1: 1, 1025: 1}), LinearForm({10 ** 30: 2})):
        assert (Z[1] * Z[1000]).divide_by_form(form) is None


def test_divide_by_form_without_its_smallest_variable():
    """A form whose smallest variable the numerator lacks divides only 0."""
    for num in (Z[2] * Z[3], Z[2] + Z[3], Polynomial.constant(4), Z[2] ** 2 - Z[3] ** 2):
        assert sympy_divide(num, LinearForm({1: 1, 2: 1})) is None
    assert sympy_divide(Z[2] ** 2 - Z[3] ** 2, LinearForm({2: 1, 3: 1})) == Z[2] - Z[3]


def test_divide_by_form_remainder_in_the_last_slice():
    """Every slice with z_v divides, and the remainder is free of z_v."""
    for form in (LinearForm({1: 1, 2: 1}), LinearForm({1: 2, 3: -1}),
                 LinearForm({2: Fraction(1, 2), 4: 3})):
        lin = Polynomial.from_linear(form)
        v = min(form.coeffs)
        r = 3 * Z[1000] + Fraction(1, 7)
        for quot, rem in ((Z[v] ** 2 + Z[2], r), (Z[v] * r, r * Z[3])):
            assert v not in rem.support()
            assert sympy_divide(lin * quot + rem, form) is None
            assert sympy_divide(lin * quot, form) == quot


def test_divide_by_form_zero_polynomial():
    for form in (LinearForm({1: 1, 2: 1}), LinearForm({1: 6, 3: -4}),
                 LinearForm({1000: Fraction(1, 3), 1001: 1})):
        assert sympy_divide(Polynomial(), form) == Polynomial()


def test_divide_by_form_of_a_high_power_is_fast():
    """Cancelling (z1+z2)^61 from (z1+z2)^60 * p: sixty-one divisions of
    a numerator of 244 terms, well within one second."""
    form = LinearForm({1: 1, 2: 1})
    z = {v: Polynomial.variable(v) for v in (1, 2, 3, 4)}
    p = 3 * z[1] ** 2 * z[3] - 2 * z[2] * z[4] ** 2 + z[3] ** 3 + 5
    num = Polynomial.from_linear(form) ** 60 * p
    assert len(num.coeffs) == 244
    start = time.perf_counter()
    germ = RationalGerm(num, [(form, 61)])
    assert time.perf_counter() - start < 1.0
    assert germ == RationalGerm(p, [(form, 1)]) and germ.numerator == p
    assert sympy_divide(num, form) == Polynomial.from_linear(form) ** 59 * p


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
polys = st.dictionaries(st.tuples(*(st.integers(0, 2) for _ in range(NV))), rationals,
                        max_size=4).map(lambda d: Polynomial(
                            {tuple(enumerate(m, 1)): c for m, c in d.items()}))
forms = st.dictionaries(st.integers(1, NV), rationals.filter(bool), min_size=1).map(LinearForm)
points = st.tuples(*(rationals for _ in range(NV)))


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys, rationals, st.integers(0, 3),
       st.lists(st.integers(1, NV), min_size=1, max_size=3, unique=True), forms, points)
def test_polynomial_operations_match_sympy(p, r, s, k, n, vs, form, point):
    zs = sympy.symbols(f"z1:{NV + 1}")
    P, R, S, K = sympy_poly(p, zs), sympy_poly(r, zs), sympy_poly(s, zs), to_sympy(k)

    def same(ours, want):
        assert_canonical_poly(ours)
        assert sympy.expand(sympy_poly(ours, zs) - want) == 0, (ours, want)

    same(p + r, P + R)
    same(p - r, P - R)
    same(p * r, P * R)
    same(p * k, P * K)
    same(k * p, P * K)
    same(p + k, P + K)
    same(Polynomial.sum([p, r, s, -p]), R + S)
    same(p ** n, P ** n)
    same(p.substitute({vs[0]: r, vs[-1]: s}),
         P.subs({zs[vs[0] - 1]: R, zs[vs[-1] - 1]: S}, simultaneous=True))
    same(p.partial(vs[0]), sympy.diff(P, zs[vs[0] - 1]))
    terms = sympy.Poly(P, *zs).terms() if p else []
    for d in range(p.degree() + 2):
        same(p.homogeneous_part(d),
             sum((c * sympy.Mul(*(z ** e for z, e in zip(zs, m)))
                  for m, c in terms if sum(m) == d), sympy.Integer(0)))
    parts = p.collect(*vs)
    want = sympy.Poly(P, *(zs[v - 1] for v in vs)).as_dict() if p else {}
    assert set(parts) == {m for m, c in want.items() if c}
    for m, part in parts.items():
        assert not set(vs) & set(part.support())
        same(part, want[m])
    assert p.evaluate(dict(enumerate(point, 1))) == from_sympy(
        P.subs(dict(zip(zs, map(to_sympy, point)))))
    for num in (p, p * Polynomial.from_linear(form)):
        quotient, remainder = sympy.div(sympy_poly(num, zs),
                                        sympy_poly(Polynomial.from_linear(form), zs),
                                        *zs, domain=sympy.QQ)
        ours = num.divide_by_form(form)
        assert (ours is None) == (remainder != 0), (num, form)
        if ours is not None:
            same(ours, quotient)


def sympy_iter_eval(germ):
    """The iterated evaluator from its definition: for every ordering of the
    variables, the constant Laurent coefficient in each variable in turn,
    over the rational functions of the others; then the average.  With
    z^m the largest power of z dividing the denominator, the rest of the
    denominator is nonzero at z = 0 for generic values of the others, so
    the coefficient is the m-th Taylor coefficient of the rest."""
    zs = {v: sympy.Symbol(f"z{v}") for v in germ.variables()}
    num = sum((to_sympy(c) * sympy.Mul(*(zs[v] ** e for v, e in m))
               for m, c in germ.numerator.terms), sympy.Integer(0))
    den = sympy.Mul(*(sum(to_sympy(c) * zs[v] for v, c in form.coeffs.items()) ** e
                      for form, e in germ.denominator))
    orders = list(itertools.permutations(sorted(zs)))
    total = sympy.Integer(0)
    for order in orders:
        value = num / den
        for v in order:
            z = zs[v]
            n, d = sympy.fraction(sympy.cancel(value))
            m = min(k for (k,) in sympy.Poly(d, z).monoms())
            value = sympy.diff(n / sympy.cancel(d / z ** m), z, m).subs(z, 0) / math.factorial(m)
        total += sympy.cancel(value)
    return total / len(orders)


def balanced_germ(rng):
    """A germ in at most 3 variables whose 2 or 3 forms share variables, and
    whose numerator has degree equal to the total pole order: each monomial
    takes, for every pole, the variable of its form first in an ordering
    drawn for that monomial (any variable for a pole z_v, so that a pure
    pole need not cancel), so that the values are mostly nonzero."""
    nv = rng.choice([2, 3, 3])
    dens = []
    for _ in range(rng.randint(2, 3)):
        vs = rng.sample(range(1, nv + 1), rng.choice([1, 2, 2, nv]))
        dens.append((LinearForm({v: rng.choice([-2, -1, 1, 1, 2]) for v in vs}),
                     rng.choice([1, 1, 2])))
    num = Polynomial()
    for _ in range(rng.randint(1, 3)):
        pref = rng.sample(range(1, nv + 1), nv)
        mono = [min(form.support() if len(form.coeffs) > 1 else pref, key=pref.index)
                for form, e in dens for _ in range(e)]
        num = num + Polynomial({tuple((v, mono.count(v)) for v in sorted(set(mono))):
                                rng.choice([-3, -1, 1, 2])})
    return RationalGerm(num, dens)


def test_iter_eval_matches_sympy():
    rng = random.Random(22)
    germs = [balanced_germ(rng) for _ in range(30)]
    values = [iter_eval(g) for g in germs]
    assert sum(map(bool, values)) >= 20
    for germ, value in zip(germs, values):
        assert to_sympy(value) == sympy_iter_eval(germ), germ
