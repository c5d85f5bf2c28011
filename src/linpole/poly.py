"""Sparse multivariate polynomials over the rationals.

A polynomial is integer numerators over one common denominator `den` >= 1:
`coeffs` maps each monomial, packed into one int, to its nonzero numerator,
and gcd(den, *coeffs.values()) = 1.  So the form is canonical, and equality
and hashing are structural.  A packed monomial holds its total degree in bits
[0, w) and the exponent of z_v in bits [v*w, (v+1)*w), w = _WIDTH (packed
exponent vectors: Monagan and Pearce, CASC 2007), so a product of monomials
is one int addition.  Total degrees stay at most _MAX_DEGREE < 2^w and
variable indices at most _MAX_VARIABLE: an operation whose result would pass
either raises BudgetExceeded before it packs anything, so no slot carries
into the next.  Only this module packs or splits monomials; `terms` reads
them as tuples of (variable, exponent) pairs with Fraction coefficients in
graded-lexicographic order, which is what repr and JSON print.  Variables
are the same 1-based indices as in exactlin.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Mapping

from .errors import BudgetExceeded
from .exactlin import LinearForm, Q, _Frozen, _as_fraction, _int_row, _signed_sum, span, zvar

Monomial = tuple[tuple[int, int], ...]  # ((var, exp), ...) sorted by var

_WIDTH = 16  # bits per slot of a packed monomial
_MASK = (1 << _WIDTH) - 1
_MAX_DEGREE = _MASK
_MAX_VARIABLE = 1024


def _check(degree: int, variable: int = 0) -> None:
    if degree > _MAX_DEGREE:
        raise BudgetExceeded(f"total degree {degree} exceeds the limit {_MAX_DEGREE}")
    if variable > _MAX_VARIABLE:
        raise BudgetExceeded(f"variable z{variable} exceeds the limit z{_MAX_VARIABLE}")


def _encode(mono: Iterable[tuple[int, int]]) -> int:
    """A monomial given as (variable, exponent) pairs, packed; a repeated
    variable's exponents add."""
    m = deg = 0
    for v, e in mono:
        if e:
            if e < 0 or v < 1:
                raise ValueError(f"bad monomial factor {(v, e)!r}")
            deg += e
            _check(deg, v)
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


def _hyperplane_point(form: LinearForm, variables: set[int]) -> dict[int, Q] | None:
    """The point z_w = a*w (w != v), z_v = -sum(c_w * w) of the hyperplane
    sum(c_w z_w) = 0, with v its smallest variable and a = c_v; None when the
    form has a variable outside `variables`."""
    if not variables.issuperset(form.coeffs):
        return None
    v = min(form.coeffs)
    a = form.coeffs[v]
    point = {w: a * w for w in variables}
    point[v] = -sum(c * w for w, c in form.coeffs.items() if w != v)
    return point


class Polynomial(_Frozen):
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
        _check(1, max(row, default=0))
        return Polynomial._trusted({(1 << v * _WIDTH) + 1: c for v, c in row.items() if c}, den)

    @staticmethod
    def from_linear(form: LinearForm) -> "Polynomial":
        return Polynomial.linear(*_int_row(form.coeffs))

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

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
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
        _check(self.degree() + other.degree())
        return Polynomial._trusted(_mul(self.coeffs, other.coeffs), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        """By repeated multiplication, which for a sparse base costs less than
        repeated squaring (Fateman, SIAM J. Comput. 3, 1974)."""
        if k < 0:
            raise ValueError("negative power")
        _check(self.degree() * k)
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
        """Replace each variable in `values` by a polynomial; others stay.

        The images are written over the lcm D of their denominators, so a
        term whose substituted variables have total degree s is an integer
        polynomial over D^s; every term is brought to D^deg(self)."""
        values = {v: values[v] for v in self.support() if v in values}
        if not values:
            return self
        den, top = lcm(*(p.den for p in values.values())), self.degree()
        powers = {v: [{0: 1}, {m: c * (den // p.den) for m, c in p.coeffs.items()}]
                  for v, p in values.items()}
        slots = [(v, v * _WIDTH, p.degree() - 1) for v, p in values.items()]
        acc: dict[int, int] = {}
        for m, c in self.coeffs.items():
            exps, s, degree = [], 0, m & _MASK  # degree: of the term's image
            for v, shift, gain in slots:
                if e := (m >> shift) & _MASK:
                    exps.append((v, e))
                    s, degree, m = s + e, degree + e * gain, m - (e << shift) - e
            _check(degree)
            term = {m: c * den ** (top - s)}
            for v, e in exps:
                pw = powers[v]
                while len(pw) <= e:
                    pw.append(_mul(pw[-1], pw[1]))
                term = _mul(term, pw[e])
            for mt, x in term.items():
                acc[mt] = acc[mt] + x if mt in acc else x
        return Polynomial._trusted({m: c for m, c in acc.items() if c}, self.den * den ** top)

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Rename variables; variables mapped to one index merge."""
        return self.substitute({v: Polynomial.variable(mapping[v])
                                for v in self.support() if v in mapping})

    def collect(self, *vs: int) -> dict[tuple[int, ...], "Polynomial"]:
        """{(k1, ..., kn): P_k} with self = sum_k P_k z_v1^k1 ... z_vn^kn over
        the distinct variables vs = (v1, ..., vn), and no P_k involving any
        of them."""
        if len(set(vs)) < len(vs) or min(vs, default=1) < 1:
            raise ValueError(f"collect needs distinct positive variables, got {vs!r}")
        shifts = [v * _WIDTH for v in vs]
        slots = sum(_MASK << s for s in shifts)
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for m, c in self.coeffs.items():
            key = tuple((m >> s) & _MASK for s in shifts)
            groups.setdefault(key, {})[m - (m & slots) - sum(key)] = c
        return {k: Polynomial._trusted(t, self.den) for k, t in groups.items()}

    def divide_by_form(self, form: LinearForm) -> "Polynomial | None":
        """Exact quotient self / form, or None when the form does not divide.

        With form = c z_v + R, v its smallest variable, u = form is a
        coordinate in place of z_v: self = sum_k u^k P_k with the P_k free of
        u, and the form divides exactly iff P_0 = 0, with quotient
        sum_k u^(k-1) P_k.  Here u is written as z_v itself.

        A divisor's variables all occur in self, and self vanishes on its
        hyperplane, here at `_hyperplane_point`: most forms fail one of these.
        """
        if not form:
            raise ZeroDivisionError("division by the zero form")
        if not self.coeffs:
            return ZERO
        point = _hyperplane_point(form, set(self.support()))
        if point is None or self.evaluate(point):
            return None
        v, lin = min(form.coeffs), Polynomial.from_linear(form)
        c, z_v = form.coeffs[v], Polynomial.variable(v)
        # z_v = (u - R) / c, R = form - c z_v
        parts = self.substitute({v: (z_v * (1 + c) - lin) * (1 / c)}).collect(v)
        if (0,) in parts:
            return None
        return Polynomial.sum(p * z_v ** (k - 1) for (k,), p in parts.items()).substitute({v: lin})

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
        return span(LinearForm(row) for row in rows.values())

    def __repr__(self):
        return _signed_sum((c, "*".join(f"z{v}^{e}" if e > 1 else f"z{v}" for v, e in m))
                           for m, c in reversed(self.terms))


ZERO = Polynomial()
ONE = Polynomial.constant(1)
