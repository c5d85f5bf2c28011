"""Sparse multivariate polynomials over the rationals.

A polynomial is integer numerators over one common denominator `den` >= 1:
`coeffs` maps each monomial, packed into one int, to its nonzero numerator,
and gcd(den, *coeffs.values()) = 1.  So the form is canonical, and equality
and hashing are structural.  A packed monomial holds its total degree in bits
[0, w) and the exponent of z_v in bits [v*w, (v+1)*w), w = _WIDTH (packed
exponent vectors: Monagan and Pearce, CASC 2007), so a product of monomials
is one int addition.  Total degrees stay within LIMITS["total degree"] <
2^w and variable indices within LIMITS["variable index"]: an operation whose
result would pass either raises BudgetExceeded before it packs anything, so
no slot carries into the next.  Only this module packs or splits
monomials; `terms` reads them as tuples of (variable, exponent) pairs with
Fraction coefficients in graded-lexicographic order, which is what repr and
JSON print.  One routine, `substitute_collect`, substitutes polynomials for
variables and groups the result by the exponents of other variables, in
one pass over the packed numerators; `substitute` and `collect` are its two
halves.  Variables are the same 1-based indices as in exactlin.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import comb, gcd, lcm
from collections.abc import Iterable, Mapping

from .errors import LIMITS, limit
from .exactlin import LinearForm, Q, _Value, _as_fraction, _rref, _signed_sum, zvar

Monomial = tuple[tuple[int, int], ...]  # ((var, exp), ...) sorted by var

_WIDTH = 16  # bits per slot of a packed monomial
_MASK = (1 << _WIDTH) - 1
# bound once: the checks below run in every product
_DEGREES, _VARIABLES = LIMITS["total degree"], LIMITS["variable index"]
assert _DEGREES <= _MASK, "a total degree fits its slot"


def check_size(degree: int, variable: int = 0) -> None:
    """BudgetExceeded unless a monomial of this total degree, and z_variable,
    fit the packing."""
    if degree > _DEGREES:
        limit("total degree", degree, "total degree")
    if variable > _VARIABLES:
        limit("variable index", variable, "variable index")


def _encode(mono: Iterable[tuple[int, int]]) -> int:
    """A monomial given as (variable, exponent) pairs, packed; a repeated
    variable's exponents add."""
    m = deg = 0
    for v, e in mono:
        if e:
            if e < 0 or v < 1:
                raise ValueError(f"bad monomial factor {(v, e)!r}")
            deg += e
            check_size(deg, v)
            m += e << (v * _WIDTH)
    return m + deg


def _decode(m: int) -> Monomial:
    mono, v = [], 0
    while m := m >> _WIDTH:
        v += 1
        if m & _MASK:
            mono.append((v, m & _MASK))
    return tuple(mono)


def _mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two {packed monomial: integer} dicts, zero terms
    dropped; the caller has bounded its degree."""
    acc: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            acc[m] = acc.get(m, 0) + ca * cb
    return {m: c for m, c in acc.items() if c}


def _power(image: dict[int, int], mask: int, e: int, chains: list) -> dict[int, int]:
    """image^e as (g + r)^e = sum_i C(e, i) g^i r^(e-i), with g the terms
    of the image that meet `mask` and r the others.  `chains` holds the
    lists of powers [g^0, g^1, ...] and [r^0, r^1, ...], filled on the first
    call and extended as far as e.  Each has fewer variables than the image:
    the e-th power of a*t + b*z1 + c*z2 costs O(e^2), where the chain of the
    image's own powers costs O(e^3)."""
    if not chains:
        chains += ([{0: 1}, {m: c for m, c in image.items() if m & mask}],
                   [{0: 1}, {m: c for m, c in image.items() if not m & mask}])
    g, r = chains
    for x in chains:
        while len(x) <= e:
            x.append(_mul(x[-1], x[1]))
    acc = dict(r[e])  # i = 0
    for i in range(1, e + 1):
        if g[i] and r[e - i]:
            k = comb(e, i)
            for m, c in (_mul(g[i], r[e - i]) if i < e else g[e]).items():
                acc[m] = acc.get(m, 0) + k * c
    return {m: c for m, c in acc.items() if c}


class Polynomial(_Value, fields=("coeffs", "den")):
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("coeffs", "den")

    def __init__(self, terms: Mapping[Monomial, Q] | Iterable[tuple[Monomial, Q]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Q] = {}
        for mono, c in items:  # an int is its own numerator over 1
            m = _encode(mono)
            c = c if type(c) is int else _as_fraction(c)
            if c:
                acc[m] = acc[m] + c if m in acc else c
        acc = {m: c for m, c in acc.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        self._fill({m: c.numerator * (den // c.denominator) for m, c in acc.items()}, den)

    @classmethod
    def _trusted(cls, coeffs: dict[int, int], den: int = 1) -> "Polynomial":
        """Wrap nonzero numerators on valid packed monomials over den > 0,
        owned by the result; only a factor they share with den is divided
        out, nothing is checked."""
        if den != 1 and (g := gcd(den, *coeffs.values())) != 1:
            den, coeffs = den // g, {m: c // g for m, c in coeffs.items()}
        p = object.__new__(cls)
        p._fill(coeffs, den)
        return p

    def _fill(self, coeffs: dict[int, int], den: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs in graded-lexicographic order."""
        # monomials of one degree end together, so this is the dense order
        order = sorted(self.coeffs, key=lambda m: (m & _MASK, [(v, -e) for v, e in _decode(m)]))
        return tuple((_decode(m), Fraction(self.coeffs[m], self.den)) for m in order)

    @staticmethod
    def constant(c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial._trusted({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(v: int) -> "Polynomial":
        return Polynomial.from_linear(zvar(v))

    @staticmethod
    def linear(row: Iterable[tuple[int, int]], den: int = 1) -> "Polynomial":
        """sum(c * z_v for v, c in row) / den: distinct variables, integer
        coefficients and den > 0."""
        row = dict(row)
        if min(row, default=1) < 1 or den < 1:
            raise ValueError(f"bad linear row {row!r} over {den}")
        check_size(1, max(row, default=0))
        return Polynomial._trusted({(1 << v * _WIDTH) + 1: c for v, c in row.items() if c}, den)

    @staticmethod
    def from_linear(form: LinearForm) -> "Polynomial":
        return Polynomial.linear(*form._integer_row())

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of the polynomials, over the lcm of their denominators."""
        polys = [p for p in polys if p.coeffs]
        if len(polys) == 1:
            return polys[0]
        den = lcm(*(p.den for p in polys))
        acc: dict[int, int] = {}
        for p in polys:
            k = den // p.den
            for m, c in p.coeffs.items():
                acc[m] = acc[m] + c * k if m in acc else c * k
        return Polynomial._trusted({m: c for m, c in acc.items() if c}, den)

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):  # on demand: most polynomials key no memo, and a dict does not hash
        return hash((frozenset(self.coeffs.items()), self.den))

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return Polynomial.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({m: -c for m, c in self.coeffs.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + other * -1

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            return Polynomial._trusted({m: c * k.numerator for m, c in self.coeffs.items()}
                                       if k else {}, self.den * k.denominator)
        check_size(self.degree() + other.degree())
        return Polynomial._trusted(_mul(self.coeffs, other.coeffs), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        """By repeated multiplication, which for a sparse base costs less than
        repeated squaring (Fateman, SIAM J. Comput. 3, 1974)."""
        if k < 0:
            raise ValueError("negative power")
        check_size(self.degree() * k)
        if len(self.coeffs) == 1:
            (m, c), = self.coeffs.items()
            return Polynomial._trusted({m * k: c ** k}, self.den ** k)
        out = {0: 1}
        for _ in range(k):
            out = _mul(out, self.coeffs)
        return Polynomial._trusted(out, self.den ** k)

    def degree(self) -> int:
        return max((m & _MASK for m in self.coeffs), default=0)

    def homogeneous_part(self, d: int) -> "Polynomial":
        """The sum of the terms of total degree d."""
        return Polynomial._trusted({m: c for m, c in self.coeffs.items() if m & _MASK == d},
                                   self.den)

    def support(self) -> tuple[int, ...]:
        mask = 0
        for m in self.coeffs:
            mask |= m
        return tuple(v for v, _ in _decode(mask))

    def constant_term(self) -> Q:
        return Fraction(self.coeffs.get(0, 0), self.den)

    def is_constant(self) -> bool:
        return all(not m for m in self.coeffs)

    def lead_coefficient(self) -> Q:
        """The coefficient of the least packed monomial, 0 for the zero
        polynomial: one fixed coefficient, so p / p.lead_coefficient() is the
        same for every nonzero multiple of p."""
        return Fraction(self.coeffs[min(self.coeffs)], self.den) if self.coeffs else Fraction(0)

    def evaluate(self, point: Mapping[int, Q]) -> Q:
        total = 0
        for m, c in self.coeffs.items():
            for v, e in _decode(m):
                x = _as_fraction(point.get(v, 0))  # in ints while integral
                c *= (x.numerator if x.denominator == 1 else x) ** e
            total += c
        return Fraction(total) / self.den

    def partial(self, v: int) -> "Polynomial":
        z_v = Polynomial.variable(v)
        return Polynomial.sum(p * k * z_v ** (k - 1) for (k,), p in self.collect(v).items() if k)

    def substitute(self, values: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each variable in `values` by a polynomial; others stay."""
        parts = self.substitute_collect(values)
        return parts[()] if parts else ZERO

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Rename variables; variables mapped to one index merge."""
        return self.substitute({v: Polynomial.variable(mapping[v])
                                for v in self.support() if v in mapping})

    def collect(self, *vs: int) -> dict[tuple[int, ...], "Polynomial"]:
        """{(k1, ..., kn): P_k} with self = sum_k P_k z_v1^k1 ... z_vn^kn over
        the distinct variables vs = (v1, ..., vn), and no P_k involving any
        of them."""
        return self.substitute_collect({}, *vs)

    def substitute_collect(self, values: Mapping[int, "Polynomial"],
                           *vs: int) -> dict[tuple[int, ...], "Polynomial"]:
        """self.substitute(values).collect(*vs) in one pass over the packed
        numerators, with no polynomial built in between.

        The images are written over the lcm D of their denominators, so a
        term whose substituted variables have total degree s is an integer
        polynomial over D^s; every term is brought to D^deg(self).  No
        monomial holds a variable past the variable index limit, so the
        exponent of such a v in vs reads 0 from the empty slot just past
        the last."""
        if len(set(vs)) < len(vs) or min(vs, default=1) < 1:
            raise ValueError(f"collect needs distinct positive variables, got {vs!r}")
        values = {v: values[v] for v in self.support() if v in values} if values else {}
        shifts = [min(v, _VARIABLES + 1) * _WIDTH for v in vs]
        mask = sum(_MASK << s for s in set(shifts))
        acc, den = self.coeffs, self.den
        if values:
            d, top = lcm(*(p.den for p in values.values())), self.degree()
            powers = {v: ({1: {m: c * (d // p.den) for m, c in p.coeffs.items()}}, [])
                      for v, p in values.items()}  # v: ({e: image^e}, chains of _power)
            slots = [(v, v * _WIDTH, p.degree() - 1) for v, p in values.items()]
            acc, den = {}, den * d ** top
            for m, c in self.coeffs.items():
                exps, s, degree = [], 0, m & _MASK  # degree: of the term's image
                for v, shift, gain in slots:
                    if e := (m >> shift) & _MASK:
                        exps.append((v, e))
                        s, degree, m = s + e, degree + e * gain, m - (e << shift) - e
                check_size(degree)
                term = {m: c * d ** (top - s)}
                for v, e in exps:
                    done, chains = powers[v]
                    if e not in done:
                        done[e] = _power(done[1], mask, e, chains)
                    term = _mul(term, done[e])
                for mt, x in term.items():
                    acc[mt] = acc[mt] + x if mt in acc else x
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for m, c in acc.items():
            if c:
                key = tuple((m >> s) & _MASK for s in shifts)
                groups.setdefault(key, {})[m - (m & mask) - sum(key)] = c
        return {k: Polynomial._trusted(t, den) for k, t in groups.items()}

    def divide_by_form(self, form: LinearForm) -> "Polynomial | None":
        """Exact quotient self / form, or None when the form does not divide.

        Synthetic division in z_v, v the form's smallest variable (von zur
        Gathen and Gerhard, Modern Computer Algebra, 2.4), in one pass over
        the integer numerators N = sum_k N_k z_v^k, the N_k free of z_v.
        With c z_v + R the form's primitive integer row, the quotient's
        slices are Q_(k-1) = (N_k - R Q_k) / c from the top slice down, and
        the row divides N iff N_0 = R Q_0.  By Gauss's lemma a primitive row
        divides N only with an integer quotient, so a remainder modulo c
        also proves that it does not.  With the form = (g / d) times its
        primitive row, the quotient's numerators carry the factor d and its
        denominator the factor g.

        Every variable of a divisor occurs in self, so a form with another
        variable is refused before any division, as most forms on the
        evaluator paths are.
        """
        if not form:
            raise ZeroDivisionError("division by the zero form")
        if not self.coeffs:
            return ZERO
        row, d = form._integer_row()
        support = functools.reduce(operator.or_, self.coeffs)
        if not all((support >> w * _WIDTH) & _MASK for w in row):
            return None
        g, v = gcd(*row.values()), min(row)
        shift, c = v * _WIDTH, row[v] // g
        unit = (1 << shift) + 1  # z_v in a packed monomial
        rest = [((1 << w * _WIDTH) + 1, x // g) for w, x in row.items() if w != v]
        slices: dict[int, dict[int, int]] = {}
        for m, x in self.coeffs.items():
            slices.setdefault((m >> shift) & _MASK, {})[m] = x
        quot: dict[int, int] = {}
        for k in range(max(slices), 0, -1):
            below = slices.setdefault(k - 1, {})
            for m, x in slices[k].items():
                if x:
                    q, r = divmod(x, c)
                    if r:
                        return None
                    m -= unit
                    quot[m] = q * d
                    for u, y in rest:
                        below[m + u] = below.get(m + u, 0) - y * q
        if any(slices[0].values()):
            return None
        return Polynomial._trusted(quot, self.den * g)

    @functools.lru_cache(maxsize=1024)
    def dependence_space(self):
        """Smallest space of linear forms this polynomial factors through.

        With M[m][v] the coefficient of monomial m in dP/dz_v, the directions
        of vanishing derivative are ker M, and their annihilator under the
        standard pairing is the row space of M.  Memoised per polynomial.
        """
        rows: dict[int, dict[int, int]] = {}
        for m, c in self.coeffs.items():
            for v, e in _decode(m):
                rows.setdefault(m - (1 << v * _WIDTH) - 1, {})[v] = c * e
        return _rref((row, 1) for row in rows.values())

    def __repr__(self):
        return _signed_sum((c, "*".join(f"z{v}^{e}" if e > 1 else f"z{v}" for v, e in m))
                           for m, c in reversed(self.terms))


ZERO = Polynomial()
ONE = Polynomial.constant(1)
