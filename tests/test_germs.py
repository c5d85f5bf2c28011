import itertools
import random
import time
from fractions import Fraction

import pytest

from linpole import (DEFAULT_Q, Decomposition, InnerProduct, LinearForm,
                     NotLocal, Polynomial, RationalGerm, d_residue, decompose,
                     dependence, find_circuit, germ_mul, germ_scale,
                     germ_sum, germs, is_local_pair, locality_mul,
                     ms_eval, p_residue, parse_germ, project_plus, recompose,
                     span, subspace_sum, zvar)
from linpole.exactlin import _axpy, _frame
from linpole.poly import ONE

from helpers import gram_solve, random_form, random_germ, random_poly, random_spd_gram

q = DEFAULT_Q
z1, z2, z3 = zvar(1), zvar(2), zvar(3)
P1, P2, P3 = Polynomial.variable(1), Polynomial.variable(2), Polynomial.variable(3)


def chen11() -> RationalGerm:
    return RationalGerm(1, [(z1, 1), (z1 + z2, 1)])


def chen22() -> RationalGerm:
    return RationalGerm(1, [(z2, 1), (z1 + z2, 1)])


def example_210_terms():
    return [chen11(), chen22(),
            germ_scale(RationalGerm(1, [(z1, 1), (z1 + z2.scale(2), 1)]), -2),
            germ_scale(RationalGerm(1, [(z2, 1), (z1 + z2.scale(2), 1)]), -1)]


# ---------------------------------------------------------------- arithmetic

def test_germ_add_examples():
    f = RationalGerm(1, [(z1, 1)])
    assert germ_sum((f, f)) == RationalGerm(2, [(z1, 1)])
    # derived: clearing denominators gives (z1+z2)/(z1 z2 (z1+z2)) -> 1/(z1 z2)
    assert germ_sum((chen11(), chen22())) == RationalGerm(1, [(z1, 1), (z2, 1)])
    g = random_germ(random.Random(1))
    assert germ_sum((g, RationalGerm(0))) == g


def pairwise_sum(germs_list):
    """The former germ_sum: a fold of common-denominator pairwise additions."""
    out = RationalGerm(0)
    for g in germs_list:
        common = dict(out.denominator)
        for form, e in g.denominator:
            common[form] = max(common.get(form, 0), e)
        nf, ng = out.numerator, g.numerator
        for form, e in common.items():
            nf = nf * Polynomial.from_linear(form) ** (e - dict(out.denominator).get(form, 0))
            ng = ng * Polynomial.from_linear(form) ** (e - dict(g.denominator).get(form, 0))
        out = RationalGerm(nf + ng, common.items())
    return out


def test_germ_sum_matches_pairwise_fold():
    rng = random.Random(71)
    pool = [z1, z2, z1 + z2, z1 - z2.scale(2), z3]
    for trial in range(80):
        terms = [random_germ(rng, max_var=3, max_factors=2)
                 for _ in range(rng.randint(0, 3))]
        # the same forms at different exponents, in both orders
        for _ in range(rng.randint(1, 3)):
            dens = [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            terms.append(RationalGerm(random_poly(rng, max_var=3), dens))
        if terms and trial % 3 == 0:
            terms.append(germ_scale(rng.choice(terms), -1))  # cancels a term
        if trial % 4 == 0:
            terms.append(RationalGerm(0))
        rng.shuffle(terms)
        assert germ_sum(terms) == pairwise_sum(terms), terms
    assert germ_sum([]) == RationalGerm(0)
    low, high = RationalGerm(1, [(z1, 1)]), RationalGerm(P2, [(z1, 3)])
    assert germ_sum([high, low]) == pairwise_sum([high, low]) == \
        RationalGerm(P1 * P1 + P2, [(z1, 3)])


def test_germ_mul_examples():
    assert germ_mul(RationalGerm(1, [(z1, 1)]), RationalGerm(1, [(z2, 1)])) == \
        RationalGerm(1, [(z1, 1), (z2, 1)])
    assert germ_mul(RationalGerm(P1), RationalGerm(1, [(z1, 1)])) == RationalGerm(1)
    gt = RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])
    f = RationalGerm(P1 - P2, [(z1 + z2, 1)])
    assert germ_mul(f, f) == gt


def test_normalisation_cancels_common_factors():
    g = RationalGerm(P1 * P2 + P2 * P2, [(z1 + z2, 1), (z2, 2)])
    assert g == RationalGerm(1, [(z2, 1)])


def test_denominator_scalars_fold_into_numerator():
    g = RationalGerm(1, [(z1.scale(2), 1)])
    assert g == germ_scale(RationalGerm(1, [(z1, 1)]), Fraction(1, 2))


# ---------------------------------------------------------------- decompose

def test_decompose_simplex_is_single_polar_term():
    d = decompose(chen11(), q)
    assert d.holomorphic == Polynomial()
    assert len(d.terms) == 1
    assert d.terms[0].numerator == Polynomial.constant(1)


def test_decompose_derived_example():
    # z2 = (z1+z2)/2 + (z2-z1)/2 gives h0 = 1/2 and polar (z2-z1)/2/(z1+z2)
    g = RationalGerm(P2, [(z1 + z2, 1)])
    d = decompose(g, q)
    assert d.holomorphic == Polynomial.constant(Fraction(1, 2))
    assert len(d.terms) == 1
    t = d.terms[0]
    assert t.numerator == (P2 - P1) * Fraction(1, 2)
    assert t.simplex.entries == ((z1 + z2, 1),)


def test_decompose_paper_cancellation():
    total = germ_sum(example_210_terms())
    assert not total
    d = decompose(total, q)
    assert d.is_zero()


def test_recompose_examples():
    assert recompose(Decomposition((), Polynomial())) == RationalGerm(0)
    g = RationalGerm(P2, [(z1 + z2, 1)])
    assert recompose(decompose(g, q)) == g


def test_decomposition_merges_terms_on_one_simplex():
    simplex = germs.SimplexFraction([(z1, 1), (z2, 2)])
    other = germs.SimplexFraction([(z1 + z2, 1)])
    t = germs.PolarTerm(P3, simplex)
    d = Decomposition([t, germs.PolarTerm(P3 * 2, simplex),
                       germs.PolarTerm(ONE, other)], Polynomial())
    assert d.terms == (germs.PolarTerm(P3 * 3, simplex), germs.PolarTerm(ONE, other))
    cancelled = Decomposition([t, germs.PolarTerm(-P3, simplex)], P1)
    assert cancelled.terms == () and cancelled.holomorphic == P1
    assert cancelled == Decomposition((), P1)


def test_decompose_roundtrip_corpus():
    rng = random.Random(42)
    for _ in range(200):
        g = random_germ(rng)
        assert recompose(decompose(g, q)) == g


def test_decompose_polar_numerators_orthogonal():
    rng = random.Random(43)
    for _ in range(60):
        g = random_germ(rng, max_var=3)
        for t in decompose(g, q).terms:
            dep = t.numerator.dependence_space()
            from linpole import orthogonal
            assert orthogonal(q, dep, t.supporting_space())


def test_decompose_canonical_across_presentations():
    g = RationalGerm(P2, [(z1 + z2, 1)])
    alt = germ_sum((RationalGerm(1), germ_scale(RationalGerm(P1, [(z1 + z2, 1)]), -1)))
    assert alt == g
    assert decompose(alt, q) == decompose(g, q)
    rng = random.Random(44)
    for _ in range(40):
        a = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        b = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        lhs = decompose(germ_sum((a, b)), q)
        rhs = decompose(germ_sum((b, a)), q)
        assert lhs == rhs


def test_separation_zero_iff_empty():
    total = germ_sum(example_210_terms())
    assert decompose(total, q).is_zero()


def test_project_plus_examples():
    assert project_plus(RationalGerm(1, [(z1, 1)]), q) == Polynomial()
    assert project_plus(RationalGerm(P2, [(z1 + z2, 1)]), q) == \
        Polynomial.constant(Fraction(1, 2))
    gt = RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])
    assert project_plus(gt, q) == Polynomial()


def test_pi_plus_is_locality_homomorphism():
    rng = random.Random(45)
    count = 0
    for _ in range(80):
        # disjoint variable blocks are q-orthogonal under the default product
        f = random_germ(rng, max_var=2, max_factors=2, max_exp=2)
        g_raw = random_germ(rng, max_var=2, max_factors=2, max_exp=2)
        g = RationalGerm(g_raw.numerator.rename({1: 3, 2: 4}),
                         [(LinearForm({v + 2: c for v, c in f_.coeffs.items()}), e)
                          for f_, e in g_raw.denominator])
        if not is_local_pair(f, g, q):
            continue
        count += 1
        lhs = project_plus(germ_mul(f, g), q)
        rhs = project_plus(f, q) * project_plus(g, q)
        assert lhs == rhs
    assert count > 50


def test_ms_eval_examples():
    h = random_poly(random.Random(2))
    assert ms_eval(RationalGerm(h), q) == h.constant_term()
    gt = RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])
    assert ms_eval(gt, q) == 0
    g1 = RationalGerm((P1 - P2) ** 2)
    g2 = RationalGerm(1, [(z1 + z2, 2)])
    assert ms_eval(germ_mul(g1, g2), q) == 0 == ms_eval(g1, q) * ms_eval(g2, q)


# ---------------------------------------------------------------- residues

def test_p_residue_examples():
    d = p_residue(RationalGerm(Polynomial.constant(1) + P2, [(z1, 2)]), q)
    assert d == Decomposition(
        [make_polar(Polynomial.constant(1), [(z1, 2)])], Polynomial())
    d2 = p_residue(germ_sum((RationalGerm(1, [(z1, 1), (z2, 1)]),
                             RationalGerm(1, [(z1, 1)]))), q)
    assert d2 == Decomposition(
        [make_polar(Polynomial.constant(1), [(z1, 1), (z2, 1)])], Polynomial())
    assert p_residue(RationalGerm(random_poly(random.Random(3))), q).is_zero()


def make_polar(num, entries):
    from linpole import PolarTerm, SimplexFraction
    return PolarTerm(num, SimplexFraction(entries))


def test_d_residue_examples():
    d = d_residue(germ_sum((RationalGerm(1, [(z1, 1), (z2, 1)]),
                            RationalGerm(1, [(z1, 2)]))), q)
    assert d == Decomposition(
        [make_polar(Polynomial.constant(1), [(z1, 1), (z2, 1)])], Polynomial())
    assert d_residue(RationalGerm(1, [(z1, 1)]), q) == Decomposition(
        [make_polar(Polynomial.constant(1), [(z1, 1)])], Polynomial())
    assert d_residue(RationalGerm(Polynomial.constant(7)), q).is_zero()


def test_p_residue_independent_of_inner_product():
    rng = random.Random(46)
    for _ in range(30):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        gram = random_spd_gram(rng, 3)
        assert p_residue(g, q) == p_residue(g, gram)


# ---------------------------------------------------------------- dependence

def test_dependence_examples():
    five = germ_sum((germ_sum(example_210_terms()), RationalGerm(1, [(z3, 1)])))
    assert dependence(five, q) == span([z3])
    assert dependence(RationalGerm(1, [(z1 + z2, 1)]), q) == span([z1 + z2])
    p = Polynomial.from_linear(z1 + z2) ** 2 + P3
    assert dependence(RationalGerm(p), q) == span([z1 + z2, z3])


def test_dependence_of_zero_and_constants():
    assert dependence(RationalGerm(0), q).dim == 0
    assert dependence(RationalGerm(Fraction(5, 3)), q).dim == 0


def test_support_in_dep_and_numerator_confinement():
    rng = random.Random(47)
    for _ in range(40):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        d = decompose(g, q)
        dep = dependence(g, q)
        # numerator confinement
        for t in d.terms:
            assert t.numerator.dependence_space() <= dep
        # support-in-dep per supporting space
        by_space = {}
        for t in d.terms:
            by_space.setdefault(t.supporting_space(), []).append(t)
        for u, terms in by_space.items():
            fu = germ_sum([t.germ() for t in terms])
            assert u <= dependence(fu, q)


def test_dep_additivity():
    rng = random.Random(48)
    for _ in range(40):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        d = decompose(g, q)
        by_space = {}
        for t in d.terms:
            by_space.setdefault(t.supporting_space(), []).append(t)
        pieces = [dependence(germ_sum([t.germ() for t in terms]), q)
                  for terms in by_space.values()]
        pieces.append(d.holomorphic.dependence_space())
        assert dependence(g, q) == subspace_sum(*pieces)


# ---------------------------------------------------------------- locality

def test_is_local_pair_examples():
    assert is_local_pair(RationalGerm(1, [(z1 + z2, 1)]),
                         RationalGerm(Polynomial.from_linear(z1 - z2)), q)
    f = RationalGerm(1, [(z1, 1)])
    assert not is_local_pair(f, f, q)
    anything = random_germ(random.Random(4))
    assert is_local_pair(RationalGerm(1), anything, q)


def test_locality_mul():
    f, g = RationalGerm(1, [(z1, 1)]), RationalGerm(1, [(z2, 1)])
    assert locality_mul(f, g, q) == RationalGerm(1, [(z1, 1), (z2, 1)])
    with pytest.raises(NotLocal):
        locality_mul(f, f, q)
    g1 = RationalGerm((P1 - P2) ** 2)
    g2 = RationalGerm(1, [(z1 + z2, 2)])
    assert locality_mul(g1, g2, q) == RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])


def test_decompose_roundtrip_under_gram_block(monkeypatch):
    rng = random.Random(49)
    for _ in range(25):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        gram = random_spd_gram(rng, 3)
        d = decompose(g, gram)
        assert recompose(d) == g
        from linpole import orthogonal
        for t in d.terms:
            assert orthogonal(gram, t.numerator.dependence_space(),
                              t.supporting_space())
    # up to three denominator factors, so that some simplex split overflows
    # onto a denominator that circuit elimination alone does not reach
    projected = []
    monkeypatch.setattr(germs, "_split_simplex", recording_split(projected))
    germs._decompose.cache_clear()  # a memoised germ would not split again
    overflows = 0
    for _ in range(25):
        g = random_germ(rng, max_var=3, max_factors=3, max_exp=2)
        gram = random_spd_gram(rng, 3)
        projected.clear()
        d = decompose(g, gram)
        leaves = {den for _n, den in tree_eliminate(g.numerator, g.denominator)}
        overflows += any(den not in leaves for den in projected)
        assert recompose(d) == g
        for t in d.terms:
            assert orthogonal(gram, t.numerator.dependence_space(),
                              t.supporting_space())
    assert overflows > 0


# ---------------------------------------------------------------- memo

def test_decompose_memo_shares_equal_germs():
    germs._decompose.cache_clear()
    num, den = P1 + P2 * P3, [(z1 + z2, 2), (z2 - z3, 1)]
    plain = RationalGerm(num, den)
    padded = RationalGerm(num * P1, den + [(z1, 1)])
    assert padded == plain
    assert decompose(padded) is decompose(plain)
    assert decompose(plain) is decompose(plain, DEFAULT_Q)
    info = germs._decompose.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def test_decompose_memo_keys_on_inner_product():
    g = RationalGerm(P2, [(z1 + z2, 1), (z1 - z3, 1)])
    grams = [InnerProduct([[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
             InnerProduct([[1, 0, 0], [0, 3, 1], [0, 1, 1]])]
    fresh = [germs._decompose.__wrapped__(g, gram) for gram in grams]
    assert fresh[0] != fresh[1]
    for order in ((0, 1), (1, 0)):
        germs._decompose.cache_clear()
        for i in order:
            assert decompose(g, grams[i]) == fresh[i]
            assert decompose(g, grams[i]) is decompose(g, grams[i])


# ---------------------------------------------------------------- worklist

def recording_split(projected):
    """germs._split_simplex, recording the denominator of every projection."""
    split = germs._split_simplex

    def traced_split(num, den, *rest):
        projected.append(den)
        split(num, den, *rest)
    return traced_split


def tree_eliminate(num, den):
    """The former phase 1: expand the circuit splits as a tree, one leaf per
    path, without merging equal denominators."""
    out = []
    stack = [(num, tuple(sorted(den, key=lambda t: t[0].key())))]
    while stack:
        n, d = stack.pop()
        forms = [f for f, _ in d]
        circuit = find_circuit(forms)
        if circuit is None:
            out.append((n, d))
            continue
        idxs, coeffs = circuit
        pivot = next(i for i, c in zip(idxs, coeffs) if c == -1)
        for i, c in zip(idxs, coeffs):
            if i == pivot:
                continue
            nd = {f: e for f, e in d}
            nd[forms[i]] -= 1
            nd[forms[pivot]] += 1
            stack.append((n * c, tuple(sorted(((f, e) for f, e in nd.items() if e),
                                              key=lambda t: t[0].key()))))
    return out


def circuit_germ(rng):
    """A germ with at least three denominator factors among which lies a
    circuit, exponents up to 3."""
    while True:
        a, b = random_form(rng, 3), random_form(rng, 3)
        c = a.scale(rng.choice([1, -1, 2])) + b.scale(rng.choice([1, -1, 3]))
        extra = [random_form(rng, 3) for _ in range(rng.randint(0, 1))]
        if not c:
            continue
        g = RationalGerm(random_poly(rng, max_var=3),
                         [(f, rng.randint(1, 3)) for f in (a, b, c, *extra)])
        forms = [f for f, _ in g.denominator]
        if len(forms) >= 3 and find_circuit(forms) is not None:
            return g


def recursive_split(num, den, q, acc):
    """The former phase 2: project, then recurse once per overflow group."""
    if not num:
        return
    if not den:
        _axpy(acc.setdefault((), {}), 1, dict(num.terms))
        return
    forms = [f for f, _ in den]
    support = num.support()
    offset = max(itertools.chain(support, *(f.support() for f in forms)), default=0)
    # z_v = a_v + b_v with a_v = sum_j x_vj L_j in span(L) and b_v q-orthogonal
    # to it; L_j becomes the fresh variable offset+1+j.
    subst = {}
    for v in support:
        coords = gram_solve(q, forms, zvar(v))
        a = LinearForm((w, x * c) for x, f in zip(coords, forms) for w, c in f.coeffs.items())
        subst[v] = Polynomial([*Polynomial.from_linear(zvar(v) - a).terms,
                               *((((offset + 1 + j, 1),), x) for j, x in enumerate(coords))])
    groups = {}
    for mono, c in num.substitute(subst).terms:
        slot = [0] * len(forms)
        rest = []
        for v, e in mono:
            if v > offset:
                slot[v - offset - 1] = e
            else:
                rest.append((v, e))
        bucket, rest = groups.setdefault(tuple(slot), {}), tuple(rest)
        bucket[rest] = bucket.get(rest, 0) + c
    for slot, terms in groups.items():
        rem_den = tuple((f, e - m) for (f, e), m in zip(den, slot) if e > m)
        rem_num = [(f, m - e) for (f, e), m in zip(den, slot) if m > e]
        if rem_num:
            extra = ONE
            for f, e in rem_num:
                extra = extra * Polynomial.from_linear(f) ** e
            recursive_split(Polynomial(terms) * extra, rem_den, q, acc)
        else:
            _axpy(acc.setdefault(rem_den, {}), 1, terms)


def tree_decompose(g, q):
    """The former two-phase pipeline: tree_eliminate, then recursive_split
    on every leaf."""
    acc = {}
    for num, den in tree_eliminate(g.numerator, g.denominator):
        recursive_split(num, den, q, acc)
    holo = Polynomial(acc.pop((), {}))
    return Decomposition([germs.PolarTerm(Polynomial(t), germs.SimplexFraction(den))
                          for den, t in acc.items() if t], holo)


def test_merged_phase1_matches_tree_expansion(monkeypatch):
    rng = random.Random(81)
    uncached = germs._decompose.__wrapped__
    projected = []
    monkeypatch.setattr(germs, "_split_simplex", recording_split(projected))
    ties = 0  # circuits with two coefficients -1, whose pivot is not the largest form
    overflows = 0  # germs with a projection onto a denominator that is no leaf
    cases = [circuit_germ(rng) for _ in range(60)]
    cases += [random_germ(rng, max_var=3, max_factors=3, max_exp=2) for _ in range(30)]
    for trial, g in enumerate(cases):
        forms = [f for f, _ in g.denominator]
        circuit = find_circuit(forms) if forms else None
        ties += circuit is not None and circuit[1].count(-1) > 1
        gram = random_spd_gram(rng, 3) if trial % 3 == 0 else q
        projected.clear()
        merged = uncached(g, gram)
        leaves = {den for _n, den in tree_eliminate(g.numerator, g.denominator)}
        overflows += any(den not in leaves for den in projected)
        tree = tree_decompose(g, gram)
        assert merged == tree, g
        assert [repr(x) for x in (merged, merged.terms, merged.holomorphic)] == \
            [repr(x) for x in (tree, tree.terms, tree.holomorphic)]
    assert ties > 0
    assert overflows > 0


def test_each_denominator_projected_once(monkeypatch):
    uncached = germs._decompose.__wrapped__
    projected = []
    monkeypatch.setattr(germs, "_split_simplex", recording_split(projected))
    # recursive_split projects (3*z1-z2-2*z3)^2 three times and () five times here
    g = parse_germ("(-z2^2*z3^2 + z1*z3^2)/((z1 + z2 - z3)*(3*z1 - z2 - 2*z3)^2)")
    uncached(g, q)
    assert len(projected) > 1 and len(set(projected)) == len(projected)
    assert () not in projected
    rng = random.Random(17)
    for _ in range(30):
        g = random_germ(rng, max_var=3, max_factors=3, max_exp=2)
        projected.clear()
        uncached(g, q)
        assert len(set(projected)) == len(projected), g
        assert () not in projected, g


def simplex_germ(rng, trial):
    """A germ whose denominator forms are independent, so that decompose is
    phase 2 alone: up to three forms over z1..z4 with coefficients up to 3,
    over a numerator of total degree at most 4 that is constant, or lies in
    the forms' own variables, or has variables in z1..z5 (so some may lie
    outside every form)."""
    while True:
        k = rng.randint(1, 3)
        forms = [random_form(rng, 4) for _ in range(k)]
        if span(forms).dim < k:
            continue
        shape = trial % 4
        pool = sorted(set().union(*(f.coeffs for f in forms))) if shape == 1 else range(1, 6)
        num = Polynomial.constant(rng.choice([1, -2, Fraction(3, 4)])) if shape == 0 else \
            Polynomial({tuple((rng.choice(pool), 1) for _ in range(rng.randint(0, 4))):
                        rng.randint(-4, 4) for _ in range(rng.randint(1, 4))})
        if num:
            return RationalGerm(num, [(f, rng.randint(1, 3)) for f in forms])


def test_phase2_matches_recursive_split_on_corpus(monkeypatch):
    """Phase 2 in adapted coordinates against the former projection and
    substitution in d + k variables, recursing once per overflow group."""
    rng = random.Random(2301)
    calls = []
    split = germs._split_simplex

    def traced_split(num, den, *rest):
        forms = [f for f, _ in den]
        variables = set(num.support()).union(*(f.coeffs for f in forms))
        calls.append((len(variables) - len(forms),
                      any(c.denominator != 1 or abs(c) > 1 for f in forms
                          for c in f.coeffs.values()),
                      bool(set(num.support()) - set().union(*(f.coeffs for f in forms)))))
        split(num, den, *rest)
    monkeypatch.setattr(germs, "_split_simplex", traced_split)
    uncached = germs._decompose.__wrapped__
    complements, constants, grams = set(), 0, 0
    overflows = wide = outside = 0
    for trial in range(320):
        g = simplex_germ(rng, trial)
        gram = (q, random_spd_gram(rng, 3), random_spd_gram(rng, 4, rational=True))[trial % 3]
        calls.clear()
        ours = uncached(g, gram)
        ref = tree_decompose(g, gram)
        assert ours == ref, (g, gram)
        assert [repr(x) for x in (ours, ours.terms, ours.holomorphic)] == \
            [repr(x) for x in (ref, ref.terms, ref.holomorphic)], (g, gram)
        complements.update(min(c, 2) for c, _, _ in calls)
        overflows += len(calls) > 1  # a state that only an overflow group reaches
        wide += any(w for _, w, _ in calls)
        outside += any(o for _, _, o in calls)
        constants += g.numerator.is_constant()
        grams += gram != q
    assert complements == {0, 1, 2}
    assert min(overflows, wide, outside, constants) >= 50 and grams > 200


def test_frame_inverts_and_is_q_orthogonal():
    """Each z_v = (t-part + P_v) / den with the t-part in span(L) and P_v
    q-orthogonal to it: the two parts of a form in span(L) are the form and
    0, the P_v span the n - k dimensional complement, and the split of a P_v
    is 0 and P_v."""
    rng = random.Random(1206)
    for trial in range(60):
        gram = q if trial % 2 else random_spd_gram(rng, 3, rational=trial % 4 == 0)
        k = rng.randint(0, 3)
        forms = tuple(random_form(rng, 4, rational=trial % 3 == 0) for _ in range(k))
        if span(forms).dim < k:
            continue
        variables = tuple(sorted(set(range(1, rng.randint(1, 5) + 1)).union(
            *(f.coeffs for f in forms))))
        frame = _frame(gram, forms, variables)
        assert len(frame) == len(variables)
        ps = [LinearForm(z_row) for _t, z_row, _d in frame]
        assert all(gram(p, f) == 0 for p in ps for f in forms)
        assert span(ps).dim == len(variables) - k
        assert all(set(p.coeffs) <= set(variables) for p in ps)
        for v, (t_row, z_row, den) in zip(variables, frame):  # z_v from its two parts
            assert den > 0
            t_part = LinearForm((w, x * c) for j, x in t_row for w, c in forms[j].coeffs.items())
            assert (t_part + LinearForm(z_row)).scale(Fraction(1, den)) == zvar(v)

        def parts(form):  # the t-coordinates and the z-part of a form of W
            t, z = {}, {}
            for v, (t_row, z_row, den) in zip(variables, frame):
                _axpy(t, form[v] / den, dict(t_row))
                _axpy(z, form[v] / den, dict(z_row))
            return t, LinearForm(z)

        for j, f in enumerate(forms):
            assert parts(f) == ({j: 1}, LinearForm())
        for p in ps:
            assert parts(p) == ({}, p)


def test_item8_germ_decomposes_in_seconds():
    f = parse_germ("(-3*z1*z2^2*z3^2*z4^2 - 4*z2^2*z4^2)/((z3 - z4)^3*(z1 - 2*z2)"
                   "*(z1 - 2*z2 + z3)*(3*z1 + z2 + 3*z3)^2)")
    germs._decompose.cache_clear()
    t0 = time.perf_counter()
    d = decompose(f)
    elapsed = time.perf_counter() - t0
    assert recompose(d) == f
    assert elapsed < 2, elapsed


def test_high_power_over_one_form_decomposes_in_seconds():
    f = parse_germ("z1^80/(z1+z2)")
    germs._decompose.cache_clear()
    t0 = time.perf_counter()
    d = decompose(f)
    elapsed = time.perf_counter() - t0
    assert len(d.holomorphic.coeffs) == 80 and recompose(d) == f
    assert elapsed < 4, elapsed


def test_ladder_germ_decomposes_in_seconds():
    # the tree expansion has C(80, 40) leaves here
    f = RationalGerm(1, [(z1 + z2, 40), (z1, 40), (z2, 40)])
    germs._decompose.cache_clear()
    t0 = time.perf_counter()
    d = decompose(f)
    elapsed = time.perf_counter() - t0
    assert recompose(d) == f
    assert elapsed < 30, elapsed
