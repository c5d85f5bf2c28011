import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from linpole import (DEFAULT_Q, BudgetExceeded, DependenceEscapesVars,
                     DivergentIndex, Evaluator, FractionSpec, GaloisTransform,
                     GermCombo, IncompatibleGenerators, InnerProduct,
                     LinearForm, NotChen, NotLocal, Polynomial, RationalGerm,
                     TooManyVariables, apply_transform, chen_lmap,
                     check_factorization, compose_transforms, d_residue,
                     dependence, ev_reg_single, expand_product,
                     galois_from_evaluator, germ_mul, germ_scale, germ_sum,
                     invert_transform, iter_eval, iter_evaluator,
                     locality_lyndon_generators, ms_eval, ms_evaluator,
                     mzv_numeric, p_residue, parse_germ, parse_spec,
                     spec_of_word, speer_lmap, zeta_eval, zeta_evaluator, zvar)
from linpole import evaluators, germs
from linpole.words import integer_alphabet

from helpers import random_form, random_germ, random_poly

q = DEFAULT_Q
chen = chen_lmap()
z1, z2, z3 = zvar(1), zvar(2), zvar(3)
P1, P2 = Polynomial.variable(1), Polynomial.variable(2)

F_PLAIN = RationalGerm(P1, [(z2, 1)])                       # u/v
G_PLAIN = RationalGerm(P1 ** 2, [(z2, 2)])                  # (u/v)^2
F_TILDE = RationalGerm(P1 - P2, [(z1 + z2, 1)])             # rotated
G_TILDE = RationalGerm((P1 - P2) ** 2, [(z1 + z2, 2)])


# ------------------------------------------------------------ ev_reg_single

def test_ev_reg_single_examples():
    assert ev_reg_single(F_TILDE, 1) == RationalGerm(-1)
    assert ev_reg_single(F_PLAIN, 1) == RationalGerm(0)
    h = germ_sum((RationalGerm(1, [(z1, 1)]), RationalGerm(P2)))
    assert ev_reg_single(h, 1) == RationalGerm(P2)


def test_ev_reg_single_drops_poles_and_keeps_regular_part():
    # 1/(z1^2) + z1 + 5 in z1 -> 5
    g = germ_sum((RationalGerm(1, [(z1, 2)]),
                  RationalGerm(P1 + Polynomial.constant(5))))
    assert ev_reg_single(g, 1) == RationalGerm(5)
    # mixed pole: (z1+z2)^-1 at z1^0 is 1/z2
    assert ev_reg_single(RationalGerm(1, [(z1 + z2, 1)]), 1) == \
        RationalGerm(1, [(z2, 1)])


def laurent_constant(f, i, point):
    """[z_i^0] of f with the other variables fixed at `point`, by dividing
    truncated power series in z_i (independent of ev_reg_single's binomial
    expansion)."""
    m = sum(e for form, e in f.denominator if form == zvar(i))
    num = [Fraction(0)] * (m + 1)
    for mono, c in f.numerator.terms:
        d = dict(mono)
        k = d.pop(i, 0)
        if k <= m:
            num[k] += c * math.prod(Fraction(point[v]) ** e for v, e in d.items())
    den = [Fraction(1)] + [Fraction(0)] * m
    for form, e in f.denominator:
        if form != zvar(i):
            r0, r1 = form.evaluate({**point, i: 0}), form[i]
            for _ in range(e):
                den = [r0 * den[0]] + [r0 * den[k] + r1 * den[k - 1] for k in range(1, m + 1)]
    quot = []
    for k in range(m + 1):
        quot.append((num[k] - sum(quot[j] * den[k - j] for j in range(k))) / den[0])
    return quot[m]


def test_ev_reg_single_matches_series_division():
    rng = random.Random(23)
    for _ in range(60):
        g = random_germ(rng, max_var=3, max_factors=3, max_exp=3)
        g = germ_mul(g, RationalGerm(1, [(zvar(rng.randint(1, 3)), rng.randint(1, 3))]))
        for i in g.variables():
            point = {v: Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 9))
                     for v in range(1, 4)}
            if any(f.evaluate({**point, i: 0}) == 0 for f, _ in g.denominator
                   if f != zvar(i)):
                continue
            assert ev_reg_single(g, i).evaluate(point) == laurent_constant(g, i, point)


def test_ev_reg_single_higher_order_pole_extraction():
    # z1^2/(z1^2 (z1+z2)) -> [z1^0] 1/(z1+z2) = 1/z2
    g = RationalGerm(P1 ** 2, [(z1, 2), (z1 + z2, 1)])
    assert ev_reg_single(g, 1) == RationalGerm(1, [(z2, 1)])


# ------------------------------------------------------------ iter_eval

def test_iter_eval_speer_table():
    assert iter_eval(F_PLAIN) == 0
    assert iter_eval(G_PLAIN) == 0
    assert iter_eval(F_TILDE) == 0
    assert iter_eval(G_TILDE) == 1


def test_iter_eval_multiplicativity_contrast():
    g1 = RationalGerm((P1 - P2) ** 2)
    g2 = RationalGerm(1, [(z1 + z2, 2)])
    assert iter_eval(germ_mul(g1, g2)) == 1
    assert iter_eval(g1) == 0
    assert iter_eval(g2) == 0
    assert ms_eval(germ_mul(g1, g2), q) == ms_eval(g1, q) == ms_eval(g2, q) == 0


def test_iter_eval_guards():
    with pytest.raises(TooManyVariables):
        iter_eval(F_TILDE, perm_cap=1)
    assert iter_eval(G_TILDE, perm_cap=2) == 1
    with pytest.raises(DependenceEscapesVars):
        iter_eval(RationalGerm(1, [(z1 + z3, 1)]), variables=[1, 2])


def test_iter_eval_checks_dependence_only_for_explicit_variables(monkeypatch):
    calls = []
    decompose = germs.decompose

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(germs, "decompose", counting)
    assert iter_eval(G_TILDE) == 1
    assert calls == []
    assert iter_eval(G_TILDE, variables=[1, 2]) == 1
    assert len(calls) == 1
    with pytest.raises(DependenceEscapesVars):
        iter_eval(RationalGerm(1, [(z1, 1), (z2 + z3, 2)]), variables=[1, 2])


def test_iter_eval_permutation_invariance():
    rng = random.Random(21)
    for _ in range(20):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        perm = {1: 2, 2: 3, 3: 1}
        renamed = RationalGerm(
            g.numerator.rename(perm),
            [(LinearForm({perm[v]: c for v, c in f.coeffs.items()}), e)
             for f, e in g.denominator])
        assert iter_eval(g, variables=[1, 2, 3]) == \
            iter_eval(renamed, variables=[1, 2, 3])


def test_iter_eval_filtration_compatibility():
    rng = random.Random(22)
    for _ in range(20):
        g = random_germ(rng, max_var=3, max_factors=2, max_exp=2)
        base = iter_eval(g, variables=[1, 2, 3])
        assert iter_eval(g, variables=[1, 2, 3, 4]) == base


def iter_eval_by_orderings(f, variables):
    """Reference iter_eval: the average over all k! orderings of the variables."""
    if any(not set(b.support()) <= set(variables) for b in dependence(f, q).basis):
        raise DependenceEscapesVars("germ depends on a variable outside the list")
    if not variables:
        return f.numerator.constant_term()
    total = Fraction(0)
    for sigma in itertools.permutations(variables):
        g = f
        for v in sigma:
            g = ev_reg_single(g, v)
        if not g.is_holomorphic() or not g.numerator.is_constant():
            raise DependenceEscapesVars("iterated evaluation did not reach a constant")
        total += g.numerator.constant_term()
    return total / math.factorial(len(variables))


def iter_corpus(rng, n):
    """Germs in 2-4 variables: repeated forms, pure z_i powers and numerators
    of z_i-degree above the pole order among them.  Numerator monomials of
    the denominator's degree keep most values nonzero."""
    for idx in range(n):
        nvar = 2 + idx % 3
        dens = [(random_form(rng, nvar), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        if idx % 2 == 0:
            dens.append(dens[0])
        if idx % 3 != 2:
            dens.append((zvar(rng.randint(1, nvar)), rng.randint(1, 2)))
        deg = sum(e for _, e in dens)
        num = random_poly(rng, nvar, max_deg=2, n_terms=2)
        for _ in range(rng.randint(1, 3)):
            mono = Counter(rng.randint(1, nvar) for _ in range(deg))
            num = num + Polynomial({tuple(mono.items()): rng.randint(-3, 3)})
        yield RationalGerm(num, dens)


def test_iter_eval_matches_average_over_orderings():
    rng = random.Random(24)
    raised = 0
    for g in iter_corpus(rng, 60):
        for variables in (list(g.variables()), list(g.variables())[1:]):
            try:
                expected = iter_eval_by_orderings(g, variables)
            except DependenceEscapesVars as exc:
                with pytest.raises(type(exc)):
                    iter_eval(g, variables)
                raised += 1
                continue
            assert iter_eval(g, variables) == expected, (g, variables)
    assert raised >= 10


def _shifted(g, shift):
    """g with every variable v renamed to v + shift."""
    return RationalGerm(g.numerator.rename({v: v + shift for v in g.variables()}),
                        [(LinearForm({v + shift: c for v, c in f.coeffs.items()}), e)
                         for f, e in g.denominator])


def _coupling_monomial(rng, a, b):
    """A monomial in the variables of both germs of the degree of the
    denominator of a*b."""
    deg = sum(e for _, e in a.denominator + b.denominator)
    va, vb = a.variables(), b.variables()
    vs = [rng.choice(va), rng.choice(vb)] + [rng.choice(va + vb) for _ in range(deg - 2)]
    return Polynomial({tuple(Counter(vs).items()): rng.choice((-2, -1, 1, 2))})


def test_iter_eval_on_disconnected_germs_matches_average_over_orderings():
    rng = random.Random(25)
    P4, z4 = Polynomial.variable(4), zvar(4)
    # factors in 2 or 3 variables with a nonzero value, so that products in
    # disjoint variables are nonzero and the oracle's orderings stay few
    factors = [g for g in iter_corpus(rng, 45)
               if len(g.variables()) < 4 and iter_eval_by_orderings(g, g.variables())]
    twos = [g for g in factors if len(g.variables()) == 2]
    germs = [RationalGerm((P1 - P4) ** 2, [(z1, 1), (z4, 1), (z1 + z2, 1)])]
    for a, b in zip(factors, twos[::-1]):
        b = _shifted(b, max(a.variables()))
        ab = germ_mul(a, b)
        n = len(ab.variables())
        top = Polynomial.variable(n + 1)
        germs += [
            ab,
            # a numerator monomial coupling the two blocks, of the degree
            # of the denominator so that values stay nonzero
            RationalGerm(ab.numerator + _coupling_monomial(rng, a, b), ab.denominator),
            # a variable that appears only in the numerator
            germ_mul(a, RationalGerm(top ** 2 + top * Polynomial.variable(1) + 3)),
        ]
    nonzero = raised = 0
    for g in germs:
        vs = list(g.variables())
        # a superset only below four variables: the oracle's cost is factorial
        for variables in [None, vs[1:]] + ([vs + [vs[-1] + 2]] if len(vs) < 4 else []):
            try:
                expected = iter_eval_by_orderings(g, vs if variables is None else variables)
            except DependenceEscapesVars as exc:
                with pytest.raises(type(exc)):
                    iter_eval(g, variables)
                raised += 1
                continue
            assert iter_eval(g, variables) == expected, (g, variables)
            nonzero += expected != 0
    assert len(germs) >= 25 and nonzero >= 25 and raised >= 20


def test_iter_eval_steps_block_by_block(monkeypatch):
    steps = []
    reg_terms = evaluators._reg_terms

    def counting(f, i):
        steps.append(i)
        return reg_terms(f, i)

    monkeypatch.setattr(evaluators, "_reg_terms", counting)
    a = RationalGerm((P1 - P2) ** 2, [(z1, 1), (z1 + z2 + zvar(3), 2)])
    b = _shifted(G_TILDE, 3)
    ab = germ_mul(a, b)
    # a step in z1 leaves the constant 1 and a step in z2..z5 leaves no
    # term, so the value is 1/5 after five steps
    lost = parse_germ("z2*z3*z4*z5/((z1+z2)*(z1+z3)*(z1+z4)*(z1+z5))")
    # forks: a step in z1 leaves two chains in disjoint variables, which
    # split into blocks below the root
    fork5 = parse_germ("z2*z3*z4*z5/((z1+z2)*(z2+z3)*(z1+z4)*(z4+z5))")
    fork7 = parse_germ("z2*z3*z4*z5*z6*z7/((z1+z2)*(z2+z3)*(z3+z4)*(z1+z5)*(z5+z6)*(z6+z7))")
    counts = []
    for g in (a, b, ab, lost, fork5, fork7):
        evaluators._monic_value.cache_clear()  # count a cold call
        steps.clear()
        iter_eval(g)
        counts.append(len(steps))
    slices = len(ab.numerator.collect(4, 5))
    assert counts[2] <= (counts[0] + counts[1]) * slices
    assert counts[2] < 5 * 2 ** 4  # below a pass over every subset of the five variables
    assert counts[3] <= 10
    assert iter_eval(lost) == iter_eval_by_orderings(lost, [1, 2, 3, 4, 5]) == Fraction(1, 5)
    assert counts[4] <= 9 and counts[5] <= 17
    assert iter_eval(fork5) == iter_eval_by_orderings(fork5, [1, 2, 3, 4, 5]) == Fraction(1, 20)
    assert iter_eval(fork7) == Fraction(1, 252)
    assert iter_eval(ab) == iter_eval(a) * iter_eval(b) == iter_eval_by_orderings(ab, [1, 2, 3, 4, 5])
    # the cap counts every variable, though each block is below it
    with pytest.raises(TooManyVariables):
        iter_eval(ab, perm_cap=4)
    with pytest.raises(TooManyVariables):
        iter_eval(a, variables=[1, 2, 3, 4, 5], perm_cap=4)


def test_iter_eval_values_cached_across_calls(monkeypatch):
    """Cold _reg_terms step counts on the nested-sum germs
    (z1-zk)^2/(z1 (z1+z2) ... (z1+...+zk)), and none on a repeated call."""
    steps = []
    reg_terms = evaluators._reg_terms

    def counting(f, i):
        steps.append(i)
        return reg_terms(f, i)

    monkeypatch.setattr(evaluators, "_reg_terms", counting)
    for k, cold in ((5, 163), (6, 490), (7, 1441)):
        sums = ("+".join(f"z{j}" for j in range(1, i + 1)) for i in range(1, k + 1))
        g = parse_germ(f"(z1-z{k})^2/(" + "*".join(f"({s})" for s in sums) + ")")
        evaluators._monic_value.cache_clear()
        steps.clear()
        value = iter_eval(g)
        assert len(steps) == cold
        steps.clear()
        assert iter_eval(g) == value and iter_eval(germ_scale(g, -3)) == -3 * value
        assert not steps


# ------------------------------------------------------------ mzv

def oracle_mzv(s, n_max):
    """Independent oracle: truncated nested sums with an integral tail bound.

    The partial sum over n1 <= n_max is a lower bound (all terms positive).
    Tail: the inner prefix over n2 > ... > nk < n1 is at most
    prod_{j>=2} (zeta(s_j) if s_j >= 2 else H_{n1}) <= 2^(k-1) (1 + ln n1)^d
    with d the number of unit inner exponents, and (1+ln n)^d <= 5^d n^(d/4),
    so the tail is <= C * sum_{n>N} n^(-s1+d/4) <= C N^(1-s1) N^(d/4) / (a-1)
    with a = s1 - d/4 > 1.
    """
    import math

    k = len(s)
    total = Fraction(0)

    def rec(level, upper, acc):
        nonlocal total
        if level == k:
            total += acc
            return
        for n in range(1, upper):
            rec(level + 1, n, acc / Fraction(n) ** s[level])

    rec(0, n_max + 1, Fraction(1))
    d = sum(1 for x in s[1:] if x == 1)
    const = Fraction(2) ** (k - 1) * Fraction(5) ** d
    a = Fraction(s[0]) - Fraction(d, 4)
    assert a > 1
    root4_up = math.isqrt(math.isqrt(n_max)) + 1  # >= n_max^(1/4)
    tail = const * Fraction(root4_up) ** d / (Fraction(n_max) ** (s[0] - 1) * (a - 1))
    return total, tail


def test_mzv_against_oracle():
    for s, n_max in [((2,), 400), ((3,), 200), ((2, 2), 150), ((3, 1), 150),
                     ((2, 1), 200)]:
        val, err = mzv_numeric(s, 8)
        oracle_val, oracle_tail = oracle_mzv(s, n_max)
        # oracle partial sum is a lower bound; partial + tail an upper bound
        assert oracle_val - err <= val <= oracle_val + oracle_tail + err, s


def test_mzv_known_digits():
    val, err = mzv_numeric((2,), 10)
    assert err < Fraction(1, 10 ** 10)
    import math
    assert abs(float(val) - math.pi ** 2 / 6) < 2e-10
    val3, _ = mzv_numeric((3,), 10)
    assert abs(float(val3) - 1.2020569031595942) < 2e-10


def test_mzv_shuffle_relation():
    v2, e2 = mzv_numeric((2,), 8)
    v22, e22 = mzv_numeric((2, 2), 8)
    v31, e31 = mzv_numeric((3, 1), 8)
    lhs = 2 * v22 + 4 * v31
    rhs = v2 * v2
    budget = 2 * e22 + 4 * e31 + e2 * (2 * v2 + e2)
    assert abs(lhs - rhs) <= budget
    assert abs(lhs - rhs) < Fraction(1, 10 ** 6)


def test_mzv_euler_identity():
    # zeta(2,1) = zeta(3)
    v21, e21 = mzv_numeric((2, 1), 9)
    v3, e3 = mzv_numeric((3,), 9)
    assert abs(v21 - v3) <= e21 + e3 + Fraction(1, 10 ** 9)


def test_mzv_divergent():
    with pytest.raises(DivergentIndex, match=r"^zeta\(1,2\) diverges"):
        mzv_numeric((1, 2), 6)
    with pytest.raises(DivergentIndex, match=r"^zeta\(1\) diverges"):
        mzv_numeric((1,), 6)


def _mzv_interval(s: tuple[int, ...], n_terms: int, scale: int) -> tuple[int, int]:
    """Scaled-integer enclosure of zeta(s) = sum over n1 > ... > nk >= 1 of
    prod n_j^{-s_j}.

    Level j accumulates R_j(m) = sum over n1 > ... > nj > m; tails beyond the
    truncation point are enclosed by integral comparison, with an analytic
    envelope c * n^(-e) carried through the levels.
    """
    big_n = n_terms
    # level envelopes: R_j(n) in [c_lo * (n+1)^(-e), c_hi * n^(-e)] for n >= big_n
    c_lo = c_hi = Fraction(1)
    e = 0
    lo_arr = [0] * (big_n + 1)
    hi_arr = [0] * (big_n + 1)
    prev_lo = [scale] * (big_n + 2)
    prev_hi = [scale] * (big_n + 2)  # R_0 == 1
    for s_j in s:
        a = s_j + e  # decay exponent of the summand at this level
        if a < 2:
            raise DivergentIndex(f"index {s} diverges")
        # tail at big_n
        new_e = a - 1
        new_c_hi = c_hi / (a - 1)
        new_c_lo = (c_lo / (a - 1)) * Fraction(big_n + 1, big_n + 2) ** new_e
        tail_lo = new_c_lo / Fraction(big_n + 1) ** new_e
        tail_hi = new_c_hi / Fraction(big_n) ** new_e
        lo = _floor_scaled(tail_lo, scale)
        hi = _ceil_scaled(tail_hi, scale)
        lo_arr[big_n] = lo
        hi_arr[big_n] = hi
        for mm in range(big_n - 1, -1, -1):
            n = mm + 1
            d = n ** s_j
            lo += prev_lo[n] // d
            hi += -((-prev_hi[n]) // d)
            lo_arr[mm] = lo
            hi_arr[mm] = hi
        prev_lo = lo_arr + [0]
        prev_hi = hi_arr + [0]
        lo_arr = [0] * (big_n + 1)
        hi_arr = [0] * (big_n + 1)
        c_lo, c_hi, e = new_c_lo, new_c_hi, new_e
    return prev_lo[0], prev_hi[0]


def _floor_scaled(x: Fraction, scale: int) -> int:
    return (x.numerator * scale) // x.denominator


def _ceil_scaled(x: Fraction, scale: int) -> int:
    return -((-x.numerator * scale) // x.denominator)


def truncated_mzv(s, precision):
    """The earlier mzv_numeric, kept as an oracle without its cache: nested
    sums truncated near 10^((precision+1)/2) terms with integral-comparison
    tails, doubling the truncation until the bound is met."""
    s = tuple(int(x) for x in s)
    target = Fraction(1, 10 ** precision)
    n_terms = max(64, _isqrt_ceil(10 ** (precision + 1)))
    for _ in range(8):
        scale = 10 ** (precision + 4) * n_terms * max(len(s), 1)
        lo, hi = _mzv_interval(s, n_terms, scale)
        value = Fraction(lo + hi, 2 * scale)
        err = Fraction(hi - lo, 2 * scale)
        if err <= target:
            return value, err
        n_terms *= 2
    raise RuntimeError(f"could not reach precision {precision} for zeta{s}")


def _isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def admissible_indices(max_weight, max_depth):
    """Every index with leading exponent at least 2, by weight."""
    out = []
    for w in range(2, max_weight + 1):
        for depth in range(1, max_depth + 1):
            for s in itertools.product(range(1, w + 1), repeat=depth):
                if sum(s) == w and s[0] >= 2:
                    out.append(s)
    return out


@pytest.mark.parametrize("precision", [6, 8])
def test_mzv_overlaps_truncated_oracle(precision):
    indices = admissible_indices(6, 3)
    assert len(indices) == 25
    for s in indices:
        val, err = mzv_numeric(s, precision)
        assert err < Fraction(1, 10 ** precision), s
        o_val, o_err = truncated_mzv(s, precision)
        assert abs(val - o_val) <= err + o_err, s


def mzv_closed_forms(mpmath):
    z, pi = mpmath.zeta, mpmath.pi
    return {(3,): z(3), (2, 1): z(3), (2, 1, 1): z(4), (2, 1, 1, 1): z(5),
            (3, 1): pi ** 4 / 360, (2, 2): pi ** 4 / 120,
            (4, 1): 2 * z(5) - z(2) * z(3),
            (3, 2): 3 * z(2) * z(3) - mpmath.mpf(11) / 2 * z(5),
            (2, 3): mpmath.mpf(9) / 2 * z(5) - 2 * z(2) * z(3)}


def encloses(mpmath, s, precision, exact):
    val, err = mzv_numeric(s, precision)
    assert err < Fraction(1, 10 ** precision)
    lo, hi = val - err, val + err
    return (mpmath.mpf(lo.numerator) / lo.denominator <= exact
            <= mpmath.mpf(hi.numerator) / hi.denominator)


@pytest.mark.parametrize("precision", [8, 20, 50])
def test_mzv_encloses_closed_forms(precision):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        for s, exact in mzv_closed_forms(mpmath).items():
            assert encloses(mpmath, s, precision, exact), (s, precision)


def test_mzv_deep_trailing_ones_is_fast():
    mpmath = pytest.importorskip("mpmath")
    start = time.perf_counter()
    with mpmath.workdps(40):
        assert encloses(mpmath, (2, 1, 1, 1, 1), 8, mpmath.zeta(6))
    assert time.perf_counter() - start < 1.0


def test_mzv_independent_of_call_history():
    # A fresh interpreter has seen no other precision.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from linpole import mzv_numeric; print(*mzv_numeric((2,), 8))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    cold = tuple(Fraction(x) for x in proc.stdout.split())
    mzv_numeric((2,), 10)
    assert mzv_numeric((2,), 8) == cold


def test_mzv_precision_domain():
    for precision in (-1, evaluators.MAX_PRECISION + 1):
        with pytest.raises(ValueError):
            mzv_numeric((2,), precision)
    val, err = mzv_numeric((2,), 0)
    assert err < 1 and abs(float(val) - math.pi ** 2 / 6) <= err


def test_mzv_work_budget():
    for s, precision in (((24,), 1000), ((128,), 8)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=rf"^zeta\({s[0]}\) at {precision} digits"):
            mzv_numeric(s, precision)
        assert time.perf_counter() - start < 0.1
    val, err = mzv_numeric((16,), 1000)
    assert err < Fraction(1, 10 ** 1000)
    assert 1 + Fraction(1, 2 ** 16) < val - err and val + err < 1 + Fraction(1, 2 ** 15)


# ------------------------------------------------------------ zeta evaluator

def spec_combo(*specs, coeff=1, holo=None) -> GermCombo:
    h = Polynomial.constant(coeff) if holo is None else holo
    return GermCombo([(h, tuple(specs))])


def test_zeta_eval_examples():
    f21 = FractionSpec((2,), (1,), chen)
    f11 = FractionSpec((1,), (1,), chen)
    v, e = zeta_eval(spec_combo(f21), 8)
    v2, e2 = mzv_numeric((2,), 8)
    assert abs(v - v2) <= e + e2
    assert zeta_eval(spec_combo(f11), 8) == (0, 0)

    f22 = FractionSpec((2,), (2,), chen)
    prod_v, prod_e = zeta_eval(spec_combo(f21, f22), 8)
    assert abs(prod_v - v2 * v2) <= prod_e + e2 * (2 * v2 + e2) + Fraction(1, 10**7)
    image = expand_product(f21, f22)
    img_v, img_e = zeta_eval(
        GermCombo([(Polynomial.constant(c), (s,)) for s, c in image]), 8)
    assert abs(img_v - prod_v) <= img_e + prod_e + Fraction(1, 10 ** 6)


def test_germ_combo_term_order_is_canonical():
    speer = speer_lmap()
    terms = [(Polynomial.constant(3), (FractionSpec((2,), ({1, 2},), speer),)),
             (P1 + 1, (FractionSpec((3,), (2,), chen),)),
             (Polynomial.constant(2), (FractionSpec((2,), (1,), chen),
                                       FractionSpec((2,), (3,), chen))),
             (P2, ()),
             (Polynomial.constant(5), (FractionSpec((2, 1), (1, 2), chen),))]
    combos = [GermCombo(order) for order in itertools.permutations(terms)]
    assert all(c == combos[0] and repr(c) == repr(combos[0]) for c in combos)
    # the empty monomial first, then the chen words, then the speer one
    assert repr(combos[0]).startswith("(z2)*1 + ")
    assert repr(combos[0]).endswith("(3)*f[2;{1,2}]")


def test_zeta_eval_extends_ev0():
    rng = random.Random(31)
    for _ in range(30):
        h = random_poly(rng)
        v, e = zeta_eval(GermCombo([(h, ())]), 8)
        assert (v, e) == (h.constant_term(), 0)


def test_zeta_eval_rejects_bad_input():
    sp = FractionSpec((1, 2), ({1}, {2}), speer_lmap())
    with pytest.raises(NotChen):
        zeta_eval(spec_combo(sp), 6)
    f11 = FractionSpec((1,), (1,), chen)
    bad = GermCombo([(Polynomial.variable(1), (f11,))])  # h not orthogonal
    with pytest.raises(NotLocal):
        bad.validate_locality()
    with pytest.raises(NotLocal):
        zeta_eval(bad, 6)
    GermCombo([(Polynomial.constant(3), (f11,)), (P2, (f11,))]).validate_locality()
    ev = zeta_evaluator(6)
    with pytest.raises(NotChen):
        ev.eval_germ(RationalGerm(1, [(z1, 1)]))


def test_zeta_eval_locality_multiplicativity():
    rng = random.Random(32)
    ev = zeta_evaluator(8)
    for _ in range(10):
        k1 = rng.randint(1, 2)
        let1 = rng.sample(range(1, 4), k1)
        let2 = rng.sample([u for u in range(1, 6) if u not in let1], rng.randint(1, 2))
        s1 = FractionSpec([rng.randint(1, 3) for _ in range(k1)], let1, chen)
        s2 = FractionSpec([rng.randint(1, 3) for _ in let2], let2, chen)
        v1, e1 = ev.eval_combo(spec_combo(s1))
        v2, e2 = ev.eval_combo(spec_combo(s2))
        v12, e12 = ev.eval_combo(spec_combo(s1, s2))
        slack = e12 + abs(v1) * e2 + abs(v2) * e1 + e1 * e2 + Fraction(1, 10 ** 6)
        assert abs(v12 - v1 * v2) <= slack


# ------------------------------------------------------------ galois

def weight4_generators():
    words = locality_lyndon_generators(integer_alphabet(), 4, letters=[1, 2])
    return [spec_of_word(w, chen) for w in words]


def test_galois_from_ms_is_identity():
    gens = weight4_generators()
    t = galois_from_evaluator(ms_evaluator(), gens)
    assert t.is_identity()


def test_galois_shift_definition():
    f11 = FractionSpec((1,), (1,), chen)
    e = Evaluator("custom", on_germ=lambda g: (Fraction(7), Fraction(0)))
    t = galois_from_evaluator(e, [f11])
    assert t.shift(f11) == 7


def test_apply_transform_example():
    f11 = FractionSpec((1,), (1,), chen)
    t = GaloisTransform({f11: Fraction(5)})
    combo = GermCombo([(P2, (f11,))])
    out = apply_transform(t, combo)
    assert out.germ() == germ_sum((RationalGerm(P2, [(z1, 1)]), RationalGerm(P2 * 5)))


def test_identity_transform_acts_trivially():
    gens = weight4_generators()
    t = GaloisTransform({g: Fraction(0) for g in gens})
    rng = random.Random(33)
    for combo in random_combos(rng, 20):
        assert apply_transform(t, combo).germ() == combo.germ()


def random_combos(rng, n, gens=None):
    gens = gens or weight4_generators()
    out = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, 2)):
            pool = [g for g in gens]
            first = rng.choice(pool)
            letters_used = set(first.letters)
            specs = [first]
            if rng.random() < 0.5:
                second = rng.choice([g for g in pool
                                     if not (set(g.letters) & letters_used)]
                                    or [first])
                if not (set(second.letters) & letters_used):
                    specs.append(second)
            coeff = Fraction(rng.randint(-3, 3)) or Fraction(1)
            terms.append((Polynomial.constant(coeff), tuple(specs)))
        out.append(GermCombo(terms))
    return out


def test_spec_memo_independent_of_call_history():
    """zeta_eval and apply_transform print the same in a fresh interpreter
    and after other combos have filled the memo of generator rewrites."""
    rng = random.Random(39)
    gens = weight4_generators()
    shifts = {repr(g): rng.randint(-3, 3) for g in gens}
    combos = [[(str(h.constant_term()), [repr(s) for s in specs]) for h, specs in c.terms]
              for c in random_combos(rng, 12, gens)]
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from linpole import (GaloisTransform, GermCombo, Polynomial, apply_transform,\n"
        "                     parse_spec, zeta_eval)\n"
        "shifts, combos = json.loads(sys.stdin.read())\n"
        "t = GaloisTransform({parse_spec(s): Fraction(c) for s, c in shifts.items()})\n"
        "for terms in combos:\n"
        "    c = GermCombo([(Polynomial.constant(Fraction(h)), [parse_spec(s) for s in specs])\n"
        "                   for h, specs in terms])\n"
        "    print(repr(zeta_eval(c, 8)), repr(apply_transform(t, c)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    fresh = subprocess.run([sys.executable, "-c", script], input=json.dumps([shifts, combos]),
                           env=env, capture_output=True, text=True, timeout=120, check=True)
    t = GaloisTransform({g: Fraction(shifts[repr(g)]) for g in gens})
    for c in random_combos(random.Random(40), 12, gens):  # warm-up on other combos
        zeta_eval(c, 8)
        apply_transform(t, c)
    warm = []
    for terms in combos:
        c = GermCombo([(Polynomial.constant(Fraction(h)), [parse_spec(s) for s in specs])
                       for h, specs in terms])
        warm.append(f"{zeta_eval(c, 8)!r} {apply_transform(t, c)!r}")
        for _, specs in c.terms:
            assert evaluators._lyndon_product(specs) == evaluators._lyndon_product(specs)
    assert fresh.stdout.splitlines() == warm


def test_compose_and_invert():
    gens = weight4_generators()
    rng = random.Random(34)
    shifts1 = {g: Fraction(rng.randint(-3, 3)) for g in gens}
    shifts2 = {g: Fraction(rng.randint(-3, 3)) for g in gens}
    t1, t2 = GaloisTransform(shifts1), GaloisTransform(shifts2)
    comp = compose_transforms(t1, t2)
    assert comp.shifts == {g: shifts1[g] + shifts2[g] for g in gens}
    inv = invert_transform(t1)
    assert compose_transforms(t1, inv).is_identity()
    for combo in random_combos(rng, 10, gens):
        lhs = apply_transform(comp, combo).germ()
        rhs = apply_transform(t1, apply_transform(t2, combo)).germ()
        assert lhs == rhs
        assert apply_transform(inv, apply_transform(t1, combo)).germ() == combo.germ()
    other = GaloisTransform({gens[0]: Fraction(1)})
    with pytest.raises(IncompatibleGenerators):
        compose_transforms(t1, other)


def test_residue_and_dep_preservation_under_shifts():
    gens = weight4_generators()
    rng = random.Random(35)
    t = GaloisTransform({g: Fraction(rng.randint(-2, 2)) for g in gens})
    for combo in random_combos(rng, 15, gens):
        before = combo.germ()
        after = apply_transform(t, combo).germ()
        assert p_residue(after, q) == p_residue(before, q)
        assert d_residue(after, q) == d_residue(before, q)
        assert dependence(after, q) <= dependence(before, q)


def test_check_factorization_ms_identity():
    gens = weight4_generators()
    ev = ms_evaluator()
    t = galois_from_evaluator(ev, gens)
    combos = random_combos(random.Random(36), 10, gens)
    report = check_factorization(ev, t, combos, Fraction(0))
    assert report.all_ok


def test_check_factorization_zeta():
    gens = weight4_generators()
    ev = zeta_evaluator(8)
    t = galois_from_evaluator(ev, gens)
    combos = random_combos(random.Random(37), 8, gens)
    report = check_factorization(ev, t, combos, Fraction(1, 10 ** 6))
    assert report.all_ok, repr(report)


def test_check_factorization_iter_on_chen_z1z2():
    """The iterated evaluator restricted to Chen combos in z1, z2 factors
    through minimal subtraction exactly."""
    gens = weight4_generators()
    ev = Evaluator("iter2", on_germ=lambda g: (iter_eval(g, variables=[1, 2]),
                                               Fraction(0)))
    t = galois_from_evaluator(ev, gens)
    combos = random_combos(random.Random(38), 8, gens)
    report = check_factorization(ev, t, combos, Fraction(0))
    assert report.all_ok, repr(report)


GRAM_Q = InnerProduct([[2, 1, 0], [1, 3, -1], [0, -1, 2]])


def random_homogeneous(rng, degree, max_var=3) -> Polynomial:
    """A random polynomial in z1..z_max_var whose terms all have the given
    total degree."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = Counter(rng.randint(1, max_var) for _ in range(degree))
        terms[tuple(sorted(exps.items()))] = Fraction(rng.randint(-4, 4))
    return Polynomial(terms)


@pytest.mark.parametrize("make", [ms_evaluator, iter_evaluator, lambda: ms_evaluator(GRAM_Q)],
                         ids=["ms", "iter", "ms-gram"])
def test_eval_combo_term_by_term_matches_summed_germ(make):
    """A germ evaluator applied to a combo sums over its terms; by linearity
    that equals its value on the summed germ.  Under ms the combo path reads
    only the degree-w slice of each coefficient, w the weight of its specs,
    so some coefficients mix that slice with other degrees; the summed germ
    goes through the full decomposition."""
    ev = make()
    rng = random.Random(42)
    gens = weight4_generators()
    t = GaloisTransform({g: Fraction(rng.randint(-2, 2)) for g in gens})
    combos = [GermCombo([])]
    for c in random_combos(rng, 40, gens):
        combos.append(apply_transform(t, c))
        combos.append(GermCombo([(h * random_poly(rng, 3), specs) for h, specs in c.terms]))
        combos.append(GermCombo([
            (h * random_homogeneous(rng, sum(sp.weight for sp in specs)) + random_poly(rng, 3),
             specs) for h, specs in c.terms]))
    for c in combos:
        assert ev.eval_combo(c) == ev.eval_germ(c.germ())


def test_check_factorization_evaluates_terms_not_their_sum():
    """ms of this transformed combo over one common denominator (145
    numerator terms over nine forms) took minutes; term by term it is
    milliseconds."""
    chen_gens = [spec_of_word(w, chen) for w in
                 locality_lyndon_generators(integer_alphabet(), 5, letters=[1, 2, 3])]
    ev = zeta_evaluator(8)
    t = galois_from_evaluator(ev, chen_gens)
    combo = GermCombo([
        (Polynomial.constant(-2), (parse_spec("f[5;3]"), parse_spec("f[3;1]"))),
        (Polynomial.constant(-2), (parse_spec("f[4,1;1,2]"), parse_spec("f[2;3]"))),
        (Polynomial.constant(1), (parse_spec("f[2,1,2;1,3,2]"),))])
    start = time.perf_counter()
    report = check_factorization(ev, t, [combo], Fraction(1, 10 ** 6))
    assert time.perf_counter() - start < 10
    assert len(chen_gens) == 65 and report.all_ok, repr(report)


def test_ms_combo_builds_germs_only_for_spec_free_terms(monkeypatch):
    """ms of a combo reads the degree-0 slice of each term: a constant over
    a nonempty spec product has none, so under the zeta transform of the 65
    generators of weight <= 5 on letters 1-3 only the spec-free terms reach
    ms_eval."""
    chen_gens = [spec_of_word(w, chen) for w in
                 locality_lyndon_generators(integer_alphabet(), 5, letters=[1, 2, 3])]
    t = galois_from_evaluator(zeta_evaluator(8), chen_gens)
    combo = GermCombo([
        (Polynomial.constant(-2), (parse_spec("f[5;3]"), parse_spec("f[3;1]"))),
        (Polynomial.constant(-2), (parse_spec("f[4,1;1,2]"), parse_spec("f[2;3]"))),
        (Polynomial.constant(1), (parse_spec("f[2,1,2;1,3,2]"),))])
    transformed = apply_transform(t, combo)
    calls = []
    real = evaluators.ms_eval
    monkeypatch.setattr(evaluators, "ms_eval",
                        lambda f, q=DEFAULT_Q: calls.append(f) or real(f, q))
    value, err = ms_evaluator().eval_combo(transformed)
    spec_free = [h for h, specs in transformed.terms if not specs]
    assert len(transformed.terms) > 1 and len(spec_free) == 1
    assert calls == [RationalGerm(h) for h in spec_free]
    assert (value, err) == (spec_free[0].constant_term(), 0)


def test_ms_evaluator_extends_ev0_and_axioms():
    rng = random.Random(39)
    ev = ms_evaluator()
    it = iter_evaluator()
    for _ in range(30):
        h = random_poly(rng)
        assert ev.eval_germ(RationalGerm(h)) == (h.constant_term(), 0)
        assert it.eval_germ(RationalGerm(h)) == (h.constant_term(), 0)


def test_evaluator_domain_error():
    from linpole import EvaluatorDomain
    combo_only = Evaluator("combo-only", on_combo=lambda c: (Fraction(0), Fraction(0)))
    with pytest.raises(EvaluatorDomain):
        combo_only.eval_germ(RationalGerm(1, [(z1, 1)]))
