"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from linpole import (FractionSpec, InnerProduct, LinComb, LinearForm, Polynomial,
                     RationalGerm, germ_sum, shuffle, spec_of_word)
from linpole.fracspec import spec_monomial
from linpole.words import _lyndon_solve


def random_form(rng: random.Random, max_var: int = 4, max_coef: int = 3,
                rational: bool = False) -> LinearForm:
    """A nonzero form; `rational` draws denominators 1-4 as well."""
    while True:
        coeffs = {v: Fraction(rng.randint(-max_coef, max_coef),
                              rng.randint(1, 4) if rational else 1)
                  for v in range(1, max_var + 1) if rng.random() < 0.6}
        f = LinearForm(coeffs)
        if f:
            return f


def random_poly(rng: random.Random, max_var: int = 4, max_deg: int = 2,
                n_terms: int = 3) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mono = tuple(sorted((v, rng.randint(1, max_deg))
                            for v in range(1, max_var + 1) if rng.random() < 0.4))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.randint(-4, 4))
    return Polynomial(terms)


def random_germ(rng: random.Random, max_var: int = 4, max_factors: int = 3,
                max_exp: int = 3) -> RationalGerm:
    num = random_poly(rng, max_var)
    dens = [(random_form(rng, max_var), rng.randint(1, max_exp))
            for _ in range(rng.randint(0, max_factors))]
    return RationalGerm(num, dens)


def random_form_text(rng: random.Random, max_var: int = 4) -> str:
    """The text of a nonzero form with coefficients -3..3, written without
    the package, so that it stays fixed when the package's rendering moves."""
    while True:
        terms = [f"{rng.choice((-3, -2, -1, 1, 2, 3))}*z{v}"
                 for v in range(1, max_var + 1) if rng.random() < 0.6]
        if terms:
            return " + ".join(terms)


def random_poly_text(rng: random.Random, max_var: int = 4, max_deg: int = 2,
                     n_terms: int = 3) -> str:
    """The text of a polynomial drawn as random_poly draws one."""
    return " + ".join(
        "*".join([str(rng.randint(-4, 4))] + [f"z{v}^{rng.randint(1, max_deg)}"
                                              for v in range(1, max_var + 1)
                                              if rng.random() < 0.4])
        for _ in range(rng.randint(1, n_terms)))


def random_germ_text(rng: random.Random, max_var: int = 4, max_factors: int = 3,
                     max_exp: int = 3) -> str:
    """The text of a germ drawn as random_germ draws one."""
    num = random_poly_text(rng, max_var)
    dens = [f"({random_form_text(rng, max_var)})^{rng.randint(1, max_exp)}"
            for _ in range(rng.randint(0, max_factors))]
    return f"({num})/({'*'.join(dens)})" if dens else num


def random_spd_gram(rng: random.Random, n: int, rational: bool = False) -> InnerProduct:
    """A^T A + n*I with a random small integer A (`rational`: entries with
    denominators 1-3) is symmetric positive definite."""
    a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3) if rational else 1)
          for _ in range(n)] for _ in range(n)]
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (n if i == j else 0)
          for j in range(n)] for i in range(n)]
    return InnerProduct(g)


def gram_solve(q: InnerProduct, basis, f: LinearForm) -> tuple[Fraction, ...]:
    """Oracle: the coordinates x of the q-orthogonal projection of f onto the
    span of the independent basis, sum_j x_j q(L_i, L_j) = q(L_i, f), by
    Gauss-Jordan elimination in Fractions."""
    k = len(basis)
    rows = [[q(a, b) for b in basis] + [q(a, f)] for a in basis]
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[k] for row in rows)


def assert_canonical_form(f):
    """Ascending positive indices, nonzero Fraction values, and the value
    and hash the validating constructor gives."""
    assert list(f.coeffs) == sorted(f.coeffs) and all(v >= 1 for v in f.coeffs)
    assert all(type(c) is Fraction and c for c in f.coeffs.values())
    g = LinearForm(dict(f.coeffs))
    assert f == g and hash(f) == hash(g)


def assert_canonical_poly(p):
    """Nonzero integer numerators over a denominator >= 1 that shares no
    factor with all of them, on packed monomials that the validating
    constructor rebuilds from `terms` unchanged."""
    assert type(p.den) is int and p.den >= 1, p.den
    assert all(type(c) is int and c for c in p.coeffs.values()), p.coeffs
    assert math.gcd(p.den, *p.coeffs.values()) == 1, (p.den, p.coeffs)
    rebuilt = Polynomial(p.terms)
    assert (rebuilt.coeffs, rebuilt.den) == (p.coeffs, p.den)


def germ_point_value(g: RationalGerm, point: dict[int, Fraction]) -> Fraction:
    return g.evaluate(point)


def random_point_off_poles(rng: random.Random, germs, variables) -> dict[int, Fraction]:
    """A rational point at which no denominator of the given germs vanishes."""
    for _ in range(1000):
        pt = {v: Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 7))
              for v in variables}
        ok = True
        for g in germs:
            for f, _e in g.denominator:
                if f.evaluate(pt) == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return pt
    raise RuntimeError("could not find a point off the poles")


def combination_equals_germ(combo, target: RationalGerm, rng: random.Random,
                            exact_limit: int = 24, n_points: int = 4) -> bool:
    """Check sum(c * spec germ) == target.

    Exact common-denominator comparison when the combination is small;
    otherwise exact evaluation at random rational points (the difference is a
    fixed rational function, so agreement at random points from a huge range
    leaves a vanishing Schwartz-Zippel failure probability).
    """
    if len(combo) <= exact_limit:
        from linpole import germ_scale
        total = germ_sum([germ_scale(s.germ(), c) for s, c in combo])
        return total == target
    variables = sorted({v for s, _ in combo for v in s.variables()}
                       | set(target.variables()))
    for _ in range(n_points):
        pt = random_point_off_poles(rng, [target], variables)
        try:
            lhs = sum((c * s.evaluate(pt) for s, c in combo), Fraction(0))
        except ZeroDivisionError:
            continue
        if lhs != target.evaluate(pt):
            return False
    return True


def brute_shuffle(w, v):
    """Oracle: enumerate interleaving position choices directly."""
    n, m = len(w), len(v)
    acc = {}
    for positions in itertools.combinations(range(n + m), n):
        out = [None] * (n + m)
        wi = iter(w)
        for p in positions:
            out[p] = next(wi)
        vi = iter(v)
        for i in range(n + m):
            if out[i] is None:
                out[i] = next(vi)
        t = tuple(out)
        acc[t] = acc.get(t, 0) + 1
    return {t: Fraction(c) for t, c in acc.items()}


def chain_forest(n: int) -> dict:
    """Forest JSON of one path of n nodes, each on the index set {1}."""
    node = {"set": [1]}
    for _ in range(n - 1):
        node = {"set": [1], "children": [node]}
    return {"nodes": [node]}


def recursive_shuffle_counts(w, v):
    """Reference: the pair shuffle as a memoised recursion on the first
    letters, u ш v = a(u' ш v) + b(u ш v'), in integer multiplicities; its
    dicts list their words in the order the table must keep."""
    memo = {}

    def rec(a, b):
        if not a:
            return {b: 1}
        if not b:
            return {a: 1}
        if (a, b) not in memo:
            acc = {}
            for u, c in rec(a[1:], b).items():
                acc[(a[0],) + u] = acc.get((a[0],) + u, 0) + c
            for u, c in rec(a, b[1:]).items():
                acc[(b[0],) + u] = acc.get((b[0],) + u, 0) + c
            memo[a, b] = acc
        return memo[a, b]

    return rec(w, v)


def fraction_shuffle(a, b):
    """Oracle: the bilinear shuffle of two {word: Fraction} dicts, folded in
    Fractions over brute_shuffle, with cancelled entries dropped."""
    acc = {}
    for u, c in a.items():
        for v, d in b.items():
            for w, m in brute_shuffle(u, v).items():
                acc[w] = acc.get(w, Fraction(0)) + c * d * m
    return {w: c for w, c in acc.items() if c}


def random_local_pair(rng, lmap, max_weight=6):
    """Two local specs with pairwise-disjoint letters (integers for the Chen
    map, disjoint index sets for the Speer map) and at most `max_weight`
    letters in their product's words, which keeps the recursive oracle fast."""
    pool = rng.sample(range(1, 8), rng.randint(2, 5))
    if lmap.name == "speer":
        cuts = sorted(rng.sample(range(1, len(pool)), rng.randint(1, len(pool) - 1)))
        letters = [frozenset(pool[i:j]) for i, j in zip([0] + cuts, cuts + [len(pool)])]
    else:
        letters = pool[:4]
    exps = [rng.randint(1, 2) for _ in letters]
    while sum(exps) > max_weight:
        exps[exps.index(2)] = 1
    cut = rng.randint(1, len(letters) - 1)
    return (FractionSpec(exps[:cut], letters[:cut], lmap),
            FractionSpec(exps[cut:], letters[cut:], lmap))


def _rebuilt_word(spec):
    """The word of a spec, rebuilt from its exponents and letters."""
    return FractionSpec(spec.exponents, spec.letters, spec.lmap).word()


def lincomb_expand_product(a, b):
    """Reference for expand_product on local specs of one L-map: the shuffle
    of the rebuilt words, each word mapped to a fresh spec."""
    return [(spec_of_word(w, a.lmap), c)
            for w, c in shuffle(_rebuilt_word(a), _rebuilt_word(b)).items()]


def lincomb_lyndon_decompose(combo):
    """Reference for lyndon_decompose on local specs: the words summed per
    L-map and solved, each emitted monomial sorted from fresh specs and
    summed in by one LinComb.add."""
    out = LinComb()
    by_lmap = {}
    for spec, coeff in combo:
        w = _rebuilt_word(spec)
        if not w:
            out.add({(): coeff})
            continue
        words = by_lmap.setdefault(spec.lmap, {})
        words[w] = words.get(w, Fraction(0)) + coeff
    for lmap, words in by_lmap.items():
        for mono, c in _lyndon_solve(words, lmap.alphabet).items():
            out.add({spec_monomial(spec_of_word(v, lmap) for v in mono): c})
    return out.coeffs


def fast_paths() -> dict[str, tuple[str, str]]:
    """Every functools cache decorator and every `_trusted` classmethod in
    src/linpole, found in the source: {qualified name: (module, kind)}, the
    name "Class.method" for a method and kind "cache" or "trusted"."""
    import ast
    from pathlib import Path

    import linpole

    def kind(fn):
        for d in fn.decorator_list:
            call = d.func if isinstance(d, ast.Call) else d
            if (isinstance(call, ast.Attribute) and isinstance(call.value, ast.Name)
                    and call.value.id == "functools" and call.attr in ("cache", "lru_cache")):
                return "cache"
            if fn.name == "_trusted" and isinstance(d, ast.Name) and d.id == "classmethod":
                return "trusted"
        return None

    found = {}
    for path in sorted(Path(linpole.__file__).resolve().parent.glob("*.py")):
        module = f"linpole.{path.stem}"
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for name, fn in defs:
                if k := kind(fn):
                    found[name] = (module, k)
    return found
