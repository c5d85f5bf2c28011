"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import itertools
import random
import time
from fractions import Fraction

from linpole import (DEFAULT_Q, FractionSpec, GaloisTransform,
                     GermCombo, LinearForm, Polynomial, RationalGerm,
                     apply_transform, chen_lmap, check_factorization,
                     d_residue, decompose, dependence, ev_reg_single,
                     expand_product, galois_from_evaluator,
                     germ_mul, germ_scale, germ_sum, integer_alphabet,
                     is_local_word, is_lyndon, iter_eval, iter_evaluator,
                     locality_cfl, locality_lyndon_generators, lyndon_rewrite,
                     ms_eval, ms_evaluator, mzv_numeric, p_residue,
                     spec_of_word, span, zeta_evaluator, zvar)
from linpole.words import LinComb, X0, cfl

from helpers import combination_equals_germ, random_germ, random_poly

q = DEFAULT_Q
chen = chen_lmap()
z1, z2, z3 = zvar(1), zvar(2), zvar(3)
P1, P2 = Polynomial.variable(1), Polynomial.variable(2)


def report(n, ok, detail):
    line = f"[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_dependence_example():
    t0 = time.perf_counter()
    four = [RationalGerm(1, [(z1, 1), (z1 + z2, 1)]),
            RationalGerm(1, [(z2, 1), (z1 + z2, 1)]),
            germ_scale(RationalGerm(1, [(z1, 1), (z1 + z2.scale(2), 1)]), -2),
            germ_scale(RationalGerm(1, [(z2, 1), (z1 + z2.scale(2), 1)]), -1)]
    sub_sum = germ_sum(four)
    sub_ok = decompose(sub_sum, q).is_zero()
    five = germ_sum((sub_sum, RationalGerm(1, [(z3, 1)])))
    dep_ok = dependence(five, q) == span([z3])
    elapsed = time.perf_counter() - t0
    report(1, sub_ok and dep_ok and elapsed < 1.0,
           f"Dep = span[z3], 4-term sub-sum decomposes to zero ({elapsed:.3f}s < 1s)")


def test_criterion_02_speer_evaluator_table():
    f_plain = RationalGerm(P1, [(z2, 1)])
    g_plain = RationalGerm(P1 ** 2, [(z2, 2)])
    f_tilde = RationalGerm(P1 - P2, [(z1 + z2, 1)])
    g_tilde = RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])
    values = (iter_eval(f_plain), iter_eval(g_plain),
              iter_eval(f_tilde), iter_eval(g_tilde))
    reg = ev_reg_single(f_tilde, 1)
    ok = values == (0, 0, 0, 1) and reg == RationalGerm(-1)
    report(2, ok, f"iter table {values} == (0,0,0,1); generic branch == -1")


def test_criterion_03_multiplicativity_contrast():
    g1 = RationalGerm((P1 - P2) ** 2)
    g2 = RationalGerm(1, [(z1 + z2, 2)])
    prod = germ_mul(g1, g2)
    iter_vals = (iter_eval(prod), iter_eval(g1), iter_eval(g2))
    ms_vals = (ms_eval(prod, q), ms_eval(g1, q), ms_eval(g2, q))
    ok = iter_vals == (1, 0, 0) and ms_vals == (0, 0, 0)
    report(3, ok, f"iter {iter_vals} breaks multiplicativity; ms {ms_vals} exact")


def test_criterion_04_shuffle_homomorphism_suite():
    t0 = time.perf_counter()
    rng = random.Random(404)
    failures = 0
    for _ in range(100):
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        let1 = rng.sample(range(1, 5), k1)
        let2 = rng.sample([u for u in range(1, 9) if u not in let1], k2)
        s1 = FractionSpec([rng.randint(1, 3) for _ in range(k1)], let1, chen)
        s2 = FractionSpec([rng.randint(1, 3) for _ in range(k2)], let2, chen)
        combo = expand_product(s1, s2)
        if not combination_equals_germ(combo, germ_mul(s1.germ(), s2.germ()), rng):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(4, failures == 0 and elapsed < 30.0,
           f"100 random orthogonal Chen pairs, {failures} failures ({elapsed:.1f}s < 30s)")


def brute_cfl_factorisations(w, alphabet):
    results = []

    def rec(rest, acc):
        if not rest:
            results.append(list(acc))
            return
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if is_lyndon(head, alphabet):
                if not acc or alphabet.word_key(acc[-1]) >= alphabet.word_key(head):
                    acc.append(head)
                    rec(rest[cut:], acc)
                    acc.pop()

    rec(w, [])
    return results


def test_criterion_05_cfl_radford_oracle():
    t0 = time.perf_counter()
    alphabet = integer_alphabet()
    letters = (X0, 1, 2)
    ok = True
    for n in range(1, 7):
        for w in itertools.product(letters, repeat=n):
            facts = brute_cfl_factorisations(w, alphabet)
            if len(facts) != 1:
                ok = False
                break
            grouped = []
            for f in facts[0]:
                if grouped and grouped[-1][0] == f:
                    grouped[-1] = (f, grouped[-1][1] + 1)
                else:
                    grouped.append((f, 1))
            if cfl(w, alphabet) != grouped:
                ok = False
                break
            if lyndon_rewrite(w, alphabet).expand() != LinComb({w: 1}):
                ok = False
                break
            if is_local_word(w, alphabet):
                factors, r = locality_cfl(w, alphabet)
                rebuilt = tuple(a for f in factors for a in f) + (X0,) * r
                if rebuilt != w or len(set(factors)) != len(factors):
                    ok = False
                    break
    elapsed = time.perf_counter() - t0
    count = sum(3 ** n for n in range(1, 7))
    report(5, ok and elapsed < 60.0,
           f"all {count} words of length <= 6 over 3 letters ({elapsed:.1f}s < 60s)")


def _rank_by_evaluation(specs, rng, n_points):
    germs = [s.germ() for s in specs]
    variables = sorted({v for g in germs for v in g.variables()})
    rows = []
    for _ in range(n_points):
        while True:
            pt = {v: Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 5))
                  for v in variables}
            if all(f.evaluate(pt) != 0 for g in germs for f, _ in g.denominator):
                break
        rows.append([g.evaluate(pt) for g in germs])
    rank = 0
    cols = len(specs)
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                fct = rows[r][col]
                rows[r] = [x - fct * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_criterion_06_linear_independence():
    rng = random.Random(606)
    ok = True
    for _ in range(20):
        family = set()
        while len(family) < 10:
            k = rng.randint(1, 3)
            letters = rng.sample(range(1, 6), k)
            exps = tuple(rng.randint(1, 3) for _ in range(k))
            spec = FractionSpec(exps, letters, chen)
            if spec.is_local():
                family.add(spec)
        if _rank_by_evaluation(sorted(family, key=FractionSpec.sort_key),
                               rng, 16) != 10:
            ok = False
    report(6, ok, "20 families of 10 locality Chen fractions all have rank 10")


def test_criterion_07_mzv_shuffle_relation():
    t0 = time.perf_counter()
    v2, e2 = mzv_numeric((2,), 8)
    v22, e22 = mzv_numeric((2, 2), 8)
    v31, e31 = mzv_numeric((3, 1), 8)
    lhs = 2 * v22 + 4 * v31
    rhs = v2 * v2
    gap = abs(lhs - rhs)

    # independent oracle: plain truncated nested sums with integral tail bounds
    def oracle_single(s, n):
        partial = sum(Fraction(1, m ** s) for m in range(1, n + 1))
        return partial, Fraction(1, (s - 1) * n ** (s - 1))

    def oracle_double(s1, s2, n):
        inner_prefix = Fraction(0)
        partial = Fraction(0)
        for m in range(1, n + 1):
            if m > 1:
                partial += Fraction(1, m ** s1) * inner_prefix
            inner_prefix += Fraction(1, m ** s2)
        # tail <= (prefix bound) * sum_{m>n} m^-s1  with harmonic-log inflation
        bound = inner_prefix if s2 >= 2 else inner_prefix + Fraction(2)
        scale = Fraction(2) if s2 == 1 else Fraction(1)
        return partial, scale * bound * Fraction(1, (s1 - 1) * n ** (s1 - 1))

    o2, t2 = oracle_single(2, 4000)
    o22, t22 = oracle_double(2, 2, 3000)
    o31, t31 = oracle_double(3, 1, 3000)
    bounds_ok = (o2 <= v2 + e2 <= o2 + t2 + 2 * e2
                 and o22 <= v22 + e22 <= o22 + t22 + 2 * e22
                 and o31 <= v31 + e31 <= o31 + t31 + 2 * e31)
    elapsed = time.perf_counter() - t0
    report(7, gap < Fraction(1, 10 ** 6) and bounds_ok and elapsed < 60.0,
           f"|2*z(2,2)+4*z(3,1)-z(2)^2| = {float(gap):.2e} < 1e-6; "
           f"bounds honored vs oracle ({elapsed:.1f}s < 60s)")


def _chen_z1z2_combos(rng, gens, count):
    combos = []
    while len(combos) < count:
        terms = []
        for _ in range(rng.randint(1, 2)):
            first = rng.choice(gens)
            specs = [first]
            partners = [g for g in gens if not (set(g.letters) & set(first.letters))
                        and first.weight + g.weight <= 4]
            if partners and rng.random() < 0.6:
                specs.append(rng.choice(partners))
            coeff = Fraction(rng.randint(-3, 3)) or Fraction(2)
            terms.append((Polynomial.constant(coeff), tuple(specs)))
        combos.append(GermCombo(terms))
    return combos


def test_criterion_08_galois_factorization():
    words = locality_lyndon_generators(integer_alphabet(), 4, letters=[1, 2])
    gens = [spec_of_word(w, chen) for w in words]
    assert all(g.depth <= 2 and g.weight <= 4 for g in gens)
    rng = random.Random(808)
    combos = _chen_z1z2_combos(rng, gens, 20)

    ez = zeta_evaluator(8)
    tz = galois_from_evaluator(ez, gens)
    rep_z = check_factorization(ez, tz, combos, Fraction(1, 10 ** 6))

    ems = ms_evaluator()
    tms = galois_from_evaluator(ems, gens)
    rep_ms = check_factorization(ems, tms, combos, Fraction(0))
    ok = rep_z.all_ok and rep_ms.all_ok and tms.is_identity()
    report(8, ok, f"zeta factorization within 1e-6 on {len(combos)} combos; "
                  "ms exact with the identity transform")


def test_criterion_09_evaluator_axioms():
    rng = random.Random(909)
    ems, eit = ms_evaluator(), iter_evaluator()
    ez = zeta_evaluator(6)
    ok = True
    for _ in range(100):
        h = random_poly(rng)
        c = h.constant_term()
        if ems.eval_germ(RationalGerm(h))[0] != c:
            ok = False
        if eit.eval_germ(RationalGerm(h))[0] != c:
            ok = False
        if ez.eval_combo(GermCombo([(h, ())]))[0] != c:
            ok = False
    filtration_ok = True
    for _ in range(100):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        if iter_eval(g, variables=[1, 2, 3]) != iter_eval(g, variables=[1, 2, 3, 4]):
            filtration_ok = False
    perm_ok = True
    for _ in range(100):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        sigma = dict(zip([1, 2, 3], rng.sample([1, 2, 3], 3)))
        renamed = RationalGerm(
            g.numerator.rename(sigma),
            [(LinearForm({sigma[v]: cc for v, cc in f.coeffs.items()}), e)
             for f, e in g.denominator])
        if iter_eval(g, variables=[1, 2, 3]) != iter_eval(renamed, variables=[1, 2, 3]):
            perm_ok = False
    report(9, ok and filtration_ok and perm_ok,
           "ev0 extension, filtration compatibility, permutation invariance "
           "on 100 random inputs each")


def test_criterion_10_residue_dep_preservation():
    words = locality_lyndon_generators(integer_alphabet(), 4, letters=[1, 2])
    gens = [spec_of_word(w, chen) for w in words]
    rng = random.Random(1010)
    ok = True
    for _ in range(50):
        t = GaloisTransform({g: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for g in gens})
        combo = _chen_z1z2_combos(rng, gens, 1)[0]
        before = combo.germ()
        after = apply_transform(t, combo).germ()
        if p_residue(after, q) != p_residue(before, q):
            ok = False
        if d_residue(after, q) != d_residue(before, q):
            ok = False
        if not dependence(after, q) <= dependence(before, q):
            ok = False
    report(10, ok, "p/d-residues preserved and Dep shrinks on 50 shift applications")
