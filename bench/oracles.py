"""Independent checks for the benchmark's outputs.

Nothing here imports linpole.  Outputs are read through their plain data
attributes (polynomial term tuples, form coefficient dicts, spec exponent and
letter tuples) and checked against computations made from the generated
input structures: exact Fraction evaluation at random rational points,
brute-force shuffles and Lyndon tests, and mpmath closed forms for multiple
zeta values.  Every check raises CheckFailed with a reason on a wrong output.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output disagrees with its independent oracle."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# germs given as structures: numerator {exponent tuple: coeff} over
# denominator [(coefficient tuple, exp)], variables z1..zn by position
# ---------------------------------------------------------------------------

def form_value(coeffs, point):
    return sum((Fraction(c) * point[i] for i, c in enumerate(coeffs) if c), Fraction(0))


def poly_value(num, point):
    total = Fraction(0)
    for mono, c in num.items():
        val = Fraction(c)
        for i, e in enumerate(mono):
            if e:
                val *= point[i] ** e
        total += val
    return total


def germ_value(num, den, point):
    val = poly_value(num, point)
    for coeffs, e in den:
        d = form_value(coeffs, point)
        if d == 0:
            raise ZeroDivisionError
        val /= d ** e
    return val


def random_points(rng, nvars, count, den_forms=()):
    """Rational points with every listed form nonzero."""
    pts = []
    while len(pts) < count:
        p = [Fraction(rng.randint(-29, 29), rng.randint(1, 11)) for _ in range(nvars)]
        if all(form_value(f, p) != 0 for f in den_forms):
            pts.append(p)
    return pts


# --- reading linpole objects through their data attributes -----------------

def lin_value(form, point):
    """A LinearForm (coeffs: {var: Fraction}) at a point indexed from z1."""
    return sum((c * point[v - 1] for v, c in form.coeffs.items()), Fraction(0))


def polynomial_value(poly, point):
    """A Polynomial (terms: ((var, exp), ...), coeff) at a point."""
    total = Fraction(0)
    for mono, c in poly.terms:
        val = c
        for v, e in mono:
            val *= point[v - 1] ** e
        total += val
    return total


def polar_value(numerator, entries, point):
    val = polynomial_value(numerator, point)
    for form, e in entries:
        d = lin_value(form, point)
        if d == 0:
            raise ZeroDivisionError
        val /= d ** e
    return val


def decomposition_value(dec, point):
    total = polynomial_value(dec.holomorphic, point)
    for t in dec.terms:
        total += polar_value(t.numerator, t.simplex.entries, point)
    return total


def rank(vectors):
    rows = [list(map(Fraction, v)) for v in vectors]
    r = 0
    ncols = max((len(v) for v in rows), default=0)
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                k = rows[i][col] / rows[r][col]
                rows[i] = [x - k * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def form_vector(form, n):
    return [form.coeffs.get(v, Fraction(0)) for v in range(1, n + 1)]


def gram_apply(gram, vec):
    """The q-dual direction of a form: G times its coefficient vector, with the
    identity beyond the Gram block."""
    n = len(gram)
    out = list(vec)
    for i in range(min(n, len(vec))):
        out[i] = sum((Fraction(gram[i][j]) * vec[j] for j in range(min(n, len(vec)))),
                     Fraction(0))
    return out


def q_inner(gram, a, b):
    return sum((x * y for x, y in zip(a, gram_apply(gram, b))), Fraction(0))


def check_decomposition(dec, num, den, nvars, gram, rng):
    """Sum of terms equals the germ at random points; each simplex has
    independent forms; each polar numerator is unchanged by shifts along the
    q-duals of its denominator forms (so it is q-orthogonal to them)."""
    width = max([nvars] + [v for t in dec.terms for f, _ in t.simplex.entries
                           for v in f.coeffs] + [v for t in dec.terms for m, _ in t.numerator.terms
                                                 for v, _ in m]
                + [v for m, _ in dec.holomorphic.terms for v, _ in m])
    forms = [tuple(c) + (0,) * (width - len(c)) for c, _ in den]
    for p in random_points(rng, width, 3, forms):
        try:
            got = decomposition_value(dec, p)
        except ZeroDivisionError:
            continue
        require(got == germ_value(num, den, p), "decomposition does not sum to the germ")
    for t in dec.terms:
        vecs = [form_vector(f, width) for f, _ in t.simplex.entries]
        require(rank(vecs) == len(vecs), "simplex forms are dependent")
        p = random_points(rng, width, 1)[0]
        base = polynomial_value(t.numerator, p)
        for v in vecs:
            shift = gram_apply(gram, v)
            moved = [x + Fraction(3, 7) * s for x, s in zip(p, shift)]
            require(polynomial_value(t.numerator, moved) == base,
                    "polar numerator not q-orthogonal to its denominator")


def laurent_coefficients(num, den, nvars, point):
    """Coefficients c_k of f(t*point) = sum c_k t^k for k < 0, from
    interpolating the polynomial t^E f(t*point) (E the total pole order)."""
    total = sum(e for _, e in den)
    deg = max((sum(m) for m in num), default=0)
    dval = Fraction(1)
    for coeffs, e in den:
        dval *= form_value(coeffs, point) ** e
    # g(t) = N(t*point) / D(point), degree <= deg; interpolate at t = 0..deg
    ts = list(range(deg + 1))
    ys = [poly_value(num, [t * x for x in point]) / dval for t in ts]
    coeffs = _interpolate(ts, ys)
    return {j - total: c for j, c in enumerate(coeffs) if j - total < 0 and c}


def _interpolate(xs, ys):
    """Monomial coefficients of the interpolating polynomial (Newton form)."""
    n = len(xs)
    dd = list(map(Fraction, ys))
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [dd[n - 1]]
    for i in range(n - 2, -1, -1):  # Horner: coeffs * (x - xs[i]) + dd[i]
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= xs[i] * c
        new[0] += dd[i]
        coeffs = new
    return coeffs


def check_p_residue(res, dec, num, den, nvars, rng):
    """The p-residue is the most singular Laurent coefficient of f(t*z) at t=0."""
    forms = [tuple(c) for c, _ in den]
    orders = {t.p_order for t in res.terms}
    require(len(orders) <= 1, "p-residue mixes p-orders")
    require(not res.holomorphic.terms, "p-residue has a holomorphic part")
    for p in random_points(rng, nvars, 2, forms):
        laurent = laurent_coefficients(num, den, nvars, p)
        if res.terms:
            (order,) = orders
            require(all(-k <= order for k in laurent), "a pole beyond the residue order")
            got = sum(polar_value(t.numerator, t.simplex.entries, p) for t in res.terms)
            require(got == laurent.get(-order, 0), "p-residue value differs from the limit")
            require(all(not m for t in res.terms for m, _ in t.numerator.terms),
                    "p-residue numerators are not constants")
        else:
            top = max((t.p_order for t in dec.terms), default=0)
            require(all(-k < top for k in laurent), "empty p-residue but a top-order pole")


def check_dependence(dep, num, den, nvars, dec, rng):
    """The germ is invariant under shifts annihilated by the dependence space,
    and the space holds every pole form of the decomposition."""
    width = max([nvars] + [v for f in dep.basis for v in f.coeffs])
    basis = [form_vector(f, width) for f in dep.basis]
    require(rank(basis) == len(basis), "dependence basis is dependent")
    for t in dec.terms:
        for f, _ in t.simplex.entries:
            require(rank(basis + [form_vector(f, width)]) == len(basis),
                    "a pole form lies outside the dependence space")
    kernel = _null_space(basis, width)
    forms = [tuple(c) + (0,) * (width - len(c)) for c, _ in den]
    for p in random_points(rng, width, 2, forms):
        base = germ_value(num, den, p)
        for w in kernel:
            moved = [x + Fraction(5, 3) * y for x, y in zip(p, w)]
            if any(form_value(f, moved) == 0 for f in forms):
                continue
            require(germ_value(num, den, moved) == base,
                    "germ changes along a direction the dependence space annihilates")


def _null_space(rows, n):
    """Basis of {w : row . w = 0 for every row}."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                k = m[i][col]
                m[i] = [x - k * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    out = []
    for free in (c for c in range(n) if c not in pivots):
        w = [Fraction(0)] * n
        w[free] = Fraction(1)
        for row, pc in zip(m, pivots):
            w[pc] = -row[free]
        out.append(w)
    return out


def check_ms(value, dec):
    """Minimal subtraction is the holomorphic part of the (checked)
    decomposition at zero."""
    const = sum((c for m, c in dec.holomorphic.terms if not m), Fraction(0))
    require(value == const, "ms value differs from the holomorphic constant")


def check_local_pair(answer, dep, partner_form, gram):
    width = max([len(partner_form)] + [v for f in dep.basis for v in f.coeffs])
    pf = list(partner_form) + [0] * (width - len(partner_form))
    expect = all(q_inner(gram, form_vector(f, width), list(map(Fraction, pf))) == 0
                 for f in dep.basis)
    require(answer is expect, "locality answer differs from the orthogonality test")


# ---------------------------------------------------------------------------
# words, shuffles and Lyndon words
# ---------------------------------------------------------------------------

X0 = "x0"


def letter_key(a):
    """x0 first, then integers by value, then sets by their elements sorted
    descending (the order of the Chen and Speer alphabets)."""
    if a == X0 or repr(a) == X0:
        return (0,)
    if isinstance(a, frozenset):
        return (1, tuple(sorted(a, reverse=True)))
    return (1, a)


def norm_letter(a):
    return X0 if letter_key(a) == (0,) else a


def spec_word(exps, letters):
    w = []
    for s, u in zip(exps, letters):
        w.extend([X0] * (s - 1))
        w.append(norm_letter(u))
    return tuple(w)


def is_lyndon_word(w):
    k = [letter_key(a) for a in w]
    return bool(w) and all(k < k[i:] + k[:i] for i in range(1, len(w)))


def brute_shuffle(a, b):
    """Interleavings with multiplicity, by choosing the positions of a."""
    out = {}
    n = len(a) + len(b)
    for pos in itertools.combinations(range(n), len(a)):
        ai = iter(a)
        bi = iter(b)
        chosen = set(pos)
        w = tuple(next(ai) if i in chosen else next(bi) for i in range(n))
        out[w] = out.get(w, 0) + 1
    return out


def shuffle_all(words):
    acc = {(): 1}
    for w in words:
        nxt = {}
        for u, c in acc.items():
            for v, d in brute_shuffle(u, w).items():
                nxt[v] = nxt.get(v, 0) + c * d
        acc = nxt
    return acc


def spec_value(exps, letters, point):
    """Ordered fraction f[s;u] with letter forms z_u (Chen) or z_I (Speer)."""
    val = Fraction(1)
    acc = Fraction(0)
    for s, u in zip(reversed(exps), reversed(letters)):
        if isinstance(u, frozenset):
            acc += sum(point[i - 1] for i in u)
        else:
            acc += point[u - 1]
        if acc == 0:
            raise ZeroDivisionError
        val /= acc ** s
    return val


def check_expansion(combo, a, b, rng):
    """sum c * spec == f_a * f_b at random points, and the coefficients add up
    to the number of interleavings of the two words."""
    nvars = max(list(a[1]) + list(b[1]))
    wa, wb = spec_word(*a), spec_word(*b)
    expect = brute_shuffle(wa, wb)
    got = {}
    for spec, c in combo:
        w = spec_word(spec.exponents, spec.letters)
        got[w] = got.get(w, 0) + c
    require(got == expect, "product expansion differs from the brute-force shuffle")
    for p in random_points(rng, nvars, 2):
        try:
            lhs = sum(c * spec_value(s.exponents, s.letters, p) for s, c in combo)
            rhs = spec_value(*a, p) * spec_value(*b, p)
        except ZeroDivisionError:
            continue
        require(lhs == rhs, "product expansion does not evaluate to the product")


def check_lyndon_decomposition(poly, combo):
    """Re-expanding each monomial with brute-force shuffles gives back the
    words of the combination, and every factor is a Lyndon word."""
    want = {}
    for spec, c in combo:
        w = spec_word(spec.exponents, spec.letters)
        want[w] = want.get(w, 0) + c
    got = {}
    for mono, c in poly.items():
        words = [spec_word(s.exponents, s.letters) for s in mono]
        require(all(is_lyndon_word(w) for w in words), "a factor is not a Lyndon word")
        for w, k in shuffle_all(words).items():
            got[w] = got.get(w, 0) + c * k
    got = {w: c for w, c in got.items() if c}
    want = {w: c for w, c in want.items() if c}
    require(got == want, "Lyndon decomposition does not re-expand to the input")


def forest_value(nodes, point):
    val = Fraction(1)
    stack = list(nodes)
    while stack:
        n = stack.pop()
        d = sum(point[i - 1] for i in n["set"])
        if d == 0:
            raise ZeroDivisionError
        val /= d ** n.get("exp", 1)
        stack.extend(n.get("children", []))
    return val


def check_forest(combo, forest, nvars, rng):
    for p in random_points(rng, nvars, 3):
        try:
            lhs = sum(c * spec_value(s.exponents, s.letters, p) for s, c in combo)
            rhs = forest_value(forest["nodes"], p)
        except ZeroDivisionError:
            continue
        require(lhs == rhs, "flattened forest does not evaluate to the forest fraction")


def lyndon_generators(letters, max_length):
    """Locality Lyndon words over x0 and the letters, not ending in x0, by
    brute force: every word, filtered by a rotation test."""
    pool = [X0] + list(letters)
    out = []
    for n in range(1, max_length + 1):
        for w in itertools.product(pool, repeat=n):
            real = [a for a in w if a != X0]
            if w[-1] == X0 or len(set(real)) != len(real):
                continue
            if is_lyndon_word(w):
                out.append(w)
    out.sort(key=lambda w: (len(w), [letter_key(a) for a in w]))
    return out


def check_generators(got, letters, max_length):
    want = lyndon_generators(sorted(letters), max_length)
    require([tuple(map(norm_letter, w)) for w in got] == want,
            "generator list differs from brute-force enumeration")


# ---------------------------------------------------------------------------
# multiple zeta values
# ---------------------------------------------------------------------------

def zeta_closed_form(s):
    """mpmath value of zeta(s) from a closed form, or None if none is known
    here.  Families: zeta(n); zeta({2}^n) = pi^2n/(2n+1)!;
    zeta(2,{1}^n) = zeta(n+2); zeta(3,1) = pi^4/360; Euler's weight-5
    formulas and their duals."""
    import mpmath

    mpmath.mp.dps = 40
    z, pi = mpmath.zeta, mpmath.pi
    s = tuple(s)
    if len(s) == 1:
        return z(s[0])
    if all(x == 2 for x in s):
        n = len(s)
        return pi ** (2 * n) / mpmath.factorial(2 * n + 1)
    if s[0] == 2 and all(x == 1 for x in s[1:]):
        return z(len(s) + 1)
    five = {(4, 1): 2 * z(5) - z(2) * z(3),
            (3, 2): 3 * z(2) * z(3) - mpmath.mpf(11) / 2 * z(5),
            (2, 3): mpmath.mpf(9) / 2 * z(5) - 2 * z(2) * z(3)}
    dual = {(3, 1, 1): (4, 1), (2, 2, 1): (3, 2), (2, 1, 2): (2, 3)}
    if s == (3, 1):
        return pi ** 4 / 360
    return five.get(dual.get(s, s))


def zeta_of(exps):
    """Value of the zeta evaluator on a Chen spec: zeta(s) for s1 >= 2, else 0."""
    if not exps:
        return 1
    if exps[0] == 1:
        return 0
    v = zeta_closed_form(exps)
    require(v is not None, f"no closed form for zeta{tuple(exps)}")
    return v


def close(value, expect, bound):
    import mpmath

    diff = abs(mpmath.mpf(value.numerator) / value.denominator - expect)
    return diff <= mpmath.mpf(bound.numerator) / bound.denominator + mpmath.mpf(10) ** -30


def check_shifts(transform, generators, bound):
    for spec in generators:
        exps = tuple(spec.exponents)
        expect = zeta_of(exps)
        require(close(Fraction(transform.shift(spec)), expect, bound),
                f"shift of {exps} misses its closed form")


def combo_value(terms):
    """c * zeta(A) * zeta(B) summed over the generated product terms (integer c)."""
    return sum(c * zeta_of(a[0]) * zeta_of(b[0]) for c, a, b in terms)


def check_zeta_eval(result, terms):
    value, err = result
    require(close(value, combo_value(terms), err), "zeta value misses its closed form")


def check_transformed(combo, terms, bound):
    """The constant part of S -> S + zeta(S) applied to a product is the zeta
    value of the product; every remaining factor is a Lyndon generator."""
    const = Fraction(0)
    for h, specs in combo.terms:
        if specs:
            require(all(is_lyndon_word(spec_word(s.exponents, s.letters)) for s in specs),
                    "a transformed factor is not a Lyndon generator")
        else:
            const += sum((c for m, c in h.terms if not m), Fraction(0))
    require(close(const, combo_value(terms), bound), "transformed constant misses zeta")


def check_factorization_report(report, expected, bound):
    require(report.all_ok, "check_factorization reports a failure")
    require(len(report.entries) == len(expected), "wrong number of report entries")
    for (_name, lhs, rhs, _diff, _ok), want in zip(report.entries, expected):
        require(close(lhs, want, bound) and close(rhs, want, bound),
                "factorization values miss their closed form")


def seeded(*parts):
    return random.Random("/".join(map(str, parts)))
