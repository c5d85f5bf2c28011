import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from linpole import (DEFAULT_Q, InnerProduct, LinearForm, find_circuit, inner,
                     orth_decompose, orthogonal, span, zvar, zset)
from linpole.exactlin import _axpy, _eliminate, _int_row

from helpers import assert_canonical_form, random_form

q = DEFAULT_Q
z1, z2, z3 = zvar(1), zvar(2), zvar(3)


def test_inner_examples():
    assert inner(q, z1 + z2, z1 - z2) == 0
    assert inner(q, z1, z1) == 1
    assert inner(q, z1 + z2.scale(2), z2) == 2


def test_inner_gram_block():
    g = InnerProduct([[2, 1], [1, 2]])
    assert inner(g, z1, z1) == 2
    assert inner(g, z1, z2) == 1
    # identity beyond the block
    assert inner(g, z3, z3) == 1
    assert inner(g, z1, z3) == 0


def test_inner_product_hash_matches_eq():
    a, b = InnerProduct([[2, 1], [1, 2]]), InnerProduct([["2", 1], [1, "4/2"]])
    assert a == b and hash(a) == hash(b)
    assert InnerProduct() == DEFAULT_Q and hash(InnerProduct()) == hash(DEFAULT_Q)
    memo = {a: "block", DEFAULT_Q: "default"}
    assert memo[b] == "block" and memo[InnerProduct()] == "default"
    assert InnerProduct([[3, 1], [1, 2]]) not in memo


def test_inner_product_is_immutable():
    """q keys memoised results, so changing it in place must fail."""
    g = InnerProduct([[2, 1], [1, 2]])
    before = hash(g)
    with pytest.raises(AttributeError):
        g.gram = ((1, 0), (0, 1))
    with pytest.raises(AttributeError):
        g.label = "other"
    with pytest.raises(AttributeError):
        DEFAULT_Q.gram = ((2,),)
    assert g.gram == ((2, 1), (1, 2)) and hash(g) == before and DEFAULT_Q.gram == ()


def test_gram_validation():
    with pytest.raises(ValueError):
        InnerProduct([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        InnerProduct([[0, 0], [0, 1]])  # not positive definite
    with pytest.raises(ValueError):
        InnerProduct([[1, 2], [2, 1]])  # indefinite


def test_span_examples():
    s = span([z1 + z2, z1 - z2])
    assert s.dim == 2
    assert s == span([z1, z2])
    assert span([]).dim == 0
    assert span([z1 + z2, (z1 + z2).scale(2)]).dim == 1


def test_span_canonical_under_permutation_and_scaling():
    rng = random.Random(5)
    for _ in range(40):
        forms = [random_form(rng) for _ in range(3)]
        reference = span(forms)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        scaled = [f.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
                  for f in shuffled]
        assert span(scaled) == reference


def test_orthogonal_examples():
    assert orthogonal(q, span([z1]), span([z2]))
    assert orthogonal(q, span([z1 + z2]), span([z1 - z2]))
    assert not orthogonal(q, span([z1]), span([z1 + z2]))


def test_orth_decompose_derived_example():
    # oracle: project z2 onto span[z1+z2]: t = <z2,L>/<L,L> = 1/2
    L = z1 + z2
    t = inner(q, z2, L) / inner(q, L, L)
    assert t == Fraction(1, 2)
    a, b = orth_decompose(q, z2, span([L]))
    assert a == L.scale(t)
    assert b == z2 - L.scale(t)
    assert a + b == z2
    assert inner(q, b, L) == 0


def test_orth_decompose_trivial_examples():
    a, b = orth_decompose(q, z3, span([z1]))
    assert (a, b) == (LinearForm(), z3)
    a, b = orth_decompose(q, z1, span([z1]))
    assert (a, b) == (z1, LinearForm())


def test_orth_decompose_properties_random():
    rng = random.Random(11)
    for _ in range(60):
        f = random_form(rng)
        u = span([random_form(rng) for _ in range(rng.randint(0, 3))])
        a, b = orth_decompose(q, f, u)
        assert a + b == f
        assert u.contains(a)
        for w in u.basis:
            assert inner(q, b, w) == 0


def test_orth_decompose_nondefault_gram():
    g = InnerProduct([[2, 1], [1, 2]])
    a, b = orth_decompose(g, z2, span([z1]))
    assert a + b == z2
    assert inner(g, b, z1) == 0


def rational_eliminate(rows):
    """Reference: the same incremental elimination in Fractions, pivot rows
    scaled to pivot 1, so each residual has coefficient 1 on its input."""
    pivots = []
    for row in rows:
        red = {v: Fraction(c) for v, c in row.items() if c}
        for piv, prow in pivots:
            if red.get(piv):
                _axpy(red, -red[piv], prow)
        yield red
        if red:
            inv = 1 / red[min(red)]
            pivots.append((min(red), {v: x * inv for v, x in red.items()}))


def test_eliminate_integer_contract():
    """Integer residual and combo, residual = sum(combo[i] * input_i), a
    positive multiple of the rational residual, with no common factor."""
    rng = random.Random(44)
    for _ in range(200):
        rows = [{v: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for v in range(1, 5)
                 if rng.random() < 0.7} for _ in range(rng.randint(1, 6))]
        pairs = zip(_eliminate(map(_int_row, rows)), rational_eliminate(rows))
        for idx, ((red, combo), ref) in enumerate(pairs):
            assert all(type(x) is int and x for x in (*red.values(), *combo.values()))
            total = {}
            for i, c in combo.items():
                _axpy(total, c, rows[i])
            assert total == red
            assert combo[idx] > 0 and red == {v: combo[idx] * x for v, x in ref.items()}
            assert math.gcd(*red.values(), *combo.values()) == 1


def test_projection_with_zero_gram_entries():
    """Zero inner products leave zero entries in the matrix whose column
    relations give the q-complement; none may become a pivot."""
    assert orth_decompose(q, z1 + z2, span([z1, z2])) == (z1 + z2, LinearForm())
    assert orth_decompose(q, z3, span([z1, z2])) == (LinearForm(), z3)
    g = InnerProduct([[2, 1], [1, 2]])
    basis = [z1, z1 - z2.scale(2)]  # q-orthogonal under g: a diagonal Gram matrix
    assert inner(g, basis[0], basis[1]) == 0
    for f in (z2, z1 + z3, z3, z1.scale(Fraction(1, 3)) - z2):
        a, b = orth_decompose(g, f, span(basis))
        coords = [inner(g, u, f) / inner(g, u, u) for u in basis]
        assert a == LinearForm((v, x * c) for x, u in zip(coords, basis)
                               for v, c in u.coeffs.items())
        assert a + b == f and all(inner(g, b, u) == 0 for u in basis)
        assert_canonical_form(a)
    assert orth_decompose(g, z3, span(basis))[0] == LinearForm()


def test_inner_product_with_zero_entries():
    g = InnerProduct([[2, 0, 1], [0, 3, 0], [1, 0, 2]])
    assert inner(g, z1, z2) == 0 and inner(g, z1, z3) == 1
    a, b = orth_decompose(g, z1 + z2, span([z2, z3]))
    assert a + b == z1 + z2 and inner(g, b, z2) == 0 and inner(g, b, z3) == 0
    assert a == z2 + z3.scale(Fraction(1, 2))
    for bad in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]):
        with pytest.raises(ValueError):
            InnerProduct(bad)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9))
def test_inner_symmetric_bilinear(a1, a2, b1, b2, k_num, k_den):
    a = LinearForm({1: Fraction(a1), 2: Fraction(a2)})
    b = LinearForm({1: Fraction(b1), 2: Fraction(b2)})
    k = Fraction(k_num, k_den)
    assert inner(q, a, b) == inner(q, b, a)
    assert inner(q, a.scale(k) + b, b) == k * inner(q, a, b) + inner(q, b, b)


def test_inner_bilinear_on_random_triples():
    rng = random.Random(77)
    for _ in range(1000):
        a, b, c = (random_form(rng, max_var=3) for _ in range(3))
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert inner(q, a, b) == inner(q, b, a)
        assert inner(q, a.scale(k) + c, b) == \
            k * inner(q, a, b) + inner(q, c, b)


def test_find_circuit_examples():
    idxs, coeffs = find_circuit([z1, z2, z1 + z2])
    assert idxs == (0, 1, 2)
    assert coeffs == (Fraction(1), Fraction(1), Fraction(-1))
    assert find_circuit([z1, z2]) is None
    idxs, coeffs = find_circuit([z1, z1.scale(2)])
    assert idxs == (0, 1)
    assert coeffs == (Fraction(2), Fraction(-1))


def test_find_circuit_relation_and_minimality():
    rng = random.Random(23)
    hits = 0
    for _ in range(300):
        forms = [random_form(rng, max_var=3) for _ in range(rng.randint(2, 5))]
        res = find_circuit(forms)
        if res is None:
            assert span(forms).dim == len(forms)
            continue
        hits += 1
        idxs, coeffs = res
        total = LinearForm()
        for i, c in zip(idxs, coeffs):
            total = total + forms[i].scale(c)
        assert not total, "relation must vanish exactly"
        largest = max(idxs, key=lambda i: forms[i].key())
        assert coeffs[idxs.index(largest)] == -1
        # minimality: dropping any member leaves an independent family
        for drop in idxs:
            rest = [forms[i] for i in idxs if i != drop]
            assert span(rest).dim == len(rest)
    assert hits > 30


def test_zset():
    assert zset([1, 3]) == LinearForm({1: 1, 3: 1})
    assert zset([2]) == zvar(2)


@pytest.mark.parametrize("build", [lambda: zvar(True), lambda: LinearForm({True: 1}),
                                   lambda: zset([2, True])], ids=["zvar", "form", "zset"])
def test_a_bool_is_no_variable_index(build):
    """As a coefficient is refused a bool, so is a variable index."""
    with pytest.raises(ValueError, match="^variable index must be a positive integer, got True$"):
        build()


def primitive_reference(f):
    """The primitive part by the gcd and lcm of the coefficients, with no
    shortcut for forms that are primitive already."""
    from math import gcd, lcm
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    scalar = Fraction(gcd(*(abs(c.numerator) for c in f.coeffs.values())), den)
    if f.coeffs[min(f.coeffs)] < 0:
        scalar = -scalar
    return LinearForm({v: c / scalar for v, c in f.coeffs.items()}), scalar


def test_primitive_matches_reference():
    rng = random.Random(41)
    for _ in range(80):
        f = random_form(rng)
        prim, scalar = f.primitive()
        if prim == f:  # coprime integers, positive lead: returned as it stands
            assert scalar == 1 and type(scalar) is Fraction
        k = Fraction(rng.choice([-6, -3, -1, 2, 4]), rng.choice([1, 3, 5]))
        for g in (f, f.scale(k), -f):
            assert g.primitive() == primitive_reference(g)
            prim, scalar = g.primitive()
            assert prim.scale(scalar) == g and prim.primitive() == (prim, 1)
            assert_canonical_form(prim)
    assert (z1 - z2).primitive() == (z1 - z2, 1)
    assert (z2.scale(-2) + z3.scale(Fraction(4, 3))).primitive() == (
        LinearForm({2: 3, 3: -2}), Fraction(-2, 3))


def test_trusted_forms_are_canonical():
    rng = random.Random(42)
    for _ in range(60):
        forms = [random_form(rng, max_var=5) for _ in range(rng.randint(1, 5))]
        f = forms[0]
        for g in (-f, f.scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))),
                  zvar(rng.randint(1, 6)), *span(forms).basis):
            assert_canonical_form(g)
    for bad in (0, -1, 1.0, "1"):
        with pytest.raises(ValueError):
            zvar(bad)


def dense_key(f):
    """Reference order key: the coefficients along z1..z_top, top the
    form's largest variable, as a tuple compared lexicographically."""
    return tuple(f[v] for v in range(1, max(f.coeffs, default=0) + 1))


def test_sparse_key_orders_forms_as_the_dense_key():
    """On 20,000 random pairs over z1..z7 with negative and rational
    coefficients and gaps, half of them a form against its prefix, an
    extension of a prefix, its negation or itself."""
    rng = random.Random(29)

    def form(lo=1):
        return LinearForm({v: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                           for v in range(lo, 8) if rng.random() < 0.5})

    groups = []
    for _ in range(300):
        a, cut = form(), rng.randint(0, 7)
        prefix = LinearForm({v: c for v, c in a.coeffs.items() if v <= cut})
        groups.append([(f, f.key(), dense_key(f))
                       for f in (a, prefix, prefix + form(cut + 1), -a, form())])
    pool = [f for group in groups for f in group]
    for i in range(20000):
        (a, ka, da), (b, kb, db) = (rng.choices(rng.choice(groups), k=2) if i % 2
                                    else rng.choices(pool, k=2))
        assert (ka < kb) == (da < db), (a, b)
        assert (ka == kb) == (a == b), (a, b)
    assert z2.key() < z1.key() < (z1 + z2).key()
    assert z1.key() < (z1 - z2).key() and (z1 + z3).key() < (z1 + z2).key()
    assert LinearForm().key() < (-z3).key() < (z1 - z2).key()
