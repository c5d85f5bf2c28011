"""Sparse multivariate polynomials over the rationals.

A polynomial is one dict, `coeffs`, from monomials to nonzero Fractions.
Monomials are tuples of (variable, exponent) pairs sorted by variable, with
positive exponents; only this module builds or splits them.  Equality and
hashing go through the dict, and graded-lexicographic order is applied only
where terms are read in order (`terms`, and so `repr` and JSON).  Variables
are the same 1-based indices as in exactlin.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from collections.abc import Iterable, Mapping

from .exactlin import LinearForm, Q, _as_fraction, _axpy, _signed_sum, span

Monomial = tuple[tuple[int, int], ...]  # ((var, exp), ...) sorted by var


def _mono_mul(a: Monomial, b: Iterable[tuple[int, int]]) -> Monomial:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _lower(m: Monomial, i: int) -> Monomial:
    """m with the exponent of its i-th variable lowered by one."""
    v, e = m[i]
    return m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]


def _grlex_key(m: Monomial):
    top = max((v for v, _ in m), default=0)
    return (_mono_degree(m), tuple(-next((e for w, e in m if w == v), 0) for v in range(1, top + 1)))


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


class Polynomial:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, terms: Mapping[Monomial, Q] | Iterable[tuple[Monomial, Q]] = ()):
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        acc: dict[Monomial, Fraction] = {}
        for m, c in items:
            m = tuple(sorted((v, e) for v, e in m if e))
            if any(e < 0 or v < 1 for v, e in m):
                raise ValueError(f"bad monomial {m!r}")
            if len(dict(m)) < len(m):  # a repeated variable
                m = _mono_mul((), m)
            c = _as_fraction(c)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + c
        object.__setattr__(self, "coeffs", {m: c for m, c in acc.items() if c})

    @classmethod
    def _trusted(cls, coeffs: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap a dict of canonical monomials to nonzero Fractions, owned by
        the result.  Nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs in graded-lexicographic order."""
        return tuple(sorted(self.coeffs.items(), key=lambda t: _grlex_key(t[0])))

    @staticmethod
    def constant(c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial._trusted({(): c} if c else {})

    @staticmethod
    def variable(v: int) -> "Polynomial":
        return Polynomial({((v, 1),): Fraction(1)})

    @staticmethod
    def from_linear(form: LinearForm) -> "Polynomial":
        return Polynomial._trusted({((v, 1),): c for v, c in form.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        acc = dict(self.coeffs)
        _axpy(acc, 1, other.coeffs)
        return Polynomial._trusted(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            return Polynomial._trusted({m: k * c for m, c in self.coeffs.items()} if k else {})
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m, c = _mono_mul(m1, m2), c1 * c2
                acc[m] = acc[m] + c if m in acc else c
        return Polynomial._trusted({m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def degree(self) -> int:
        return max(map(_mono_degree, self.coeffs), default=0)

    def homogeneous_part(self, d: int) -> "Polynomial":
        """The sum of the terms of total degree d."""
        return Polynomial._trusted({m: c for m, c in self.coeffs.items()
                                    if _mono_degree(m) == d})

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({v for m in self.coeffs for v, _ in m}))

    def constant_term(self) -> Q:
        return self.coeffs.get((), Fraction(0))

    def is_constant(self) -> bool:
        return all(not m for m in self.coeffs)

    def evaluate(self, point: Mapping[int, Q]) -> Q:
        total = Fraction(0)
        for m, c in self.coeffs.items():
            val = c
            for v, e in m:
                val *= _as_fraction(point.get(v, 0)) ** e
            total += val
        return total

    def partial(self, v: int) -> "Polynomial":
        return Polynomial._trusted({_lower(m, i): c * e for m, c in self.coeffs.items()
                                    for i, (w, e) in enumerate(m) if w == v})

    def substitute(self, values: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each variable in `values` by a polynomial; others stay."""
        acc: dict[Monomial, Fraction] = {}
        powers: dict[tuple[int, int], Polynomial] = {}
        for m, c in self.coeffs.items():
            term = Polynomial._trusted({tuple(x for x in m if x[0] not in values): c})
            for v, e in m:
                if v in values:
                    if (v, e) not in powers:
                        powers[v, e] = values[v] ** e
                    term = term * powers[v, e]
            _axpy(acc, 1, term.coeffs)
        return Polynomial._trusted(acc)

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Rename variables; variables mapped to one index merge."""
        return Polynomial((tuple((mapping.get(v, v), e) for v, e in m), c)
                          for m, c in self.coeffs.items())

    def collect(self, *vs: int) -> dict[tuple[int, ...], "Polynomial"]:
        """{(k1, ..., kn): P_k} with self = sum_k P_k z_v1^k1 ... z_vn^kn over
        the variables vs = (v1, ..., vn), and no P_k involving any of them."""
        groups: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
        for m, c in self.coeffs.items():
            rest = dict(m)
            groups.setdefault(tuple(rest.pop(v, 0) for v in vs), {})[tuple(rest.items())] = c
        return {k: Polynomial._trusted(t) for k, t in groups.items()}

    def divide_by_form(self, form: LinearForm) -> "Polynomial | None":
        """Exact quotient self / form, or None when the form does not divide.

        Synthetic division in the smallest variable v of the form: with
        form = c z_v + R and self = sum_k P_k z_v^k, the quotient is
        sum_k Q_k z_v^k with Q_{k-1} = (P_k - R Q_k) / c from the top degree
        down, and the form divides exactly iff R Q_0 = P_0.

        A divisor's variables all occur in self, and self vanishes on its
        hyperplane, here at `_hyperplane_point`: most forms fail one of these.
        """
        if not form:
            raise ZeroDivisionError("division by the zero form")
        if not self.coeffs:
            return ZERO
        point = _hyperplane_point(form, {w for m in self.coeffs for w, _ in m})
        if point is None or self.evaluate(point):
            return None
        v = min(form.coeffs)
        inv = 1 / form.coeffs[v]
        minus_r = Polynomial._trusted({((w, 1),): -a * inv
                                       for w, a in form.coeffs.items() if w != v})
        parts = self.collect(v)
        quot: dict[Monomial, Fraction] = {}
        carry = ZERO  # -R Q_k / c
        for k in range(max(parts, default=(0,))[0], 0, -1):
            q = parts[k,] * inv + carry if (k,) in parts else carry
            shift = ((v, k - 1),) if k > 1 else ()
            quot.update((_mono_mul(m, shift), c) for m, c in q.coeffs.items())
            carry = minus_r * q
        if carry != parts.get((0,), ZERO) * -inv:
            return None
        return Polynomial._trusted(quot)

    @functools.lru_cache(maxsize=1024)
    def dependence_space(self):
        """Smallest space of linear forms this polynomial factors through.

        With M[m][v] the coefficient of monomial m in dP/dz_v, the directions
        of vanishing derivative are ker M, and their annihilator under the
        standard pairing is the row space of M.  Memoised per polynomial.
        """
        rows: dict[Monomial, dict[int, Fraction]] = {}
        for m, c in self.coeffs.items():
            for i, (v, e) in enumerate(m):
                rows.setdefault(_lower(m, i), {})[v] = c * e
        return span(LinearForm(row) for row in rows.values())

    def __repr__(self):
        return _signed_sum((c, "*".join(f"z{v}^{e}" if e > 1 else f"z{v}" for v, e in m))
                           for m, c in reversed(self.terms))


ZERO = Polynomial()
ONE = Polynomial.constant(1)
