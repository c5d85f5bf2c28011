"""Sparse multivariate polynomials over the rationals.

A polynomial is one dict, `coeffs`, from monomials to nonzero Fractions.
Monomials are tuples of (variable, exponent) pairs sorted by variable, with
positive exponents; only this module builds or splits them, and packs them
into ints for the changes of coordinates of decompose's phase 2.  Equality and
hashing go through the dict, and graded-lexicographic order is applied only
where terms are read in order (`terms`, and so `repr` and JSON).  Variables
are the same 1-based indices as in exactlin.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from collections.abc import Iterable, Mapping, Sequence

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


# Packed monomials, for the linear changes of coordinates of decompose's
# phase 2.  Over an ordered tuple of n variables a monomial is one int, the
# exponent of the i-th variable in bits [i*w, (i+1)*w).  While 2^w exceeds
# every total degree in play no slot carries, so a product of monomials is
# one int addition.  Coefficients are ints over one denominator that the
# caller keeps.

def _pack(p: "Polynomial", variables: Sequence[int],
          scale: int) -> tuple[dict[int, int], int, int]:
    """(terms, den, w) with p(x / scale) = sum(c * x^m for m, c in terms) / den,
    the monomials packed over `variables` (which hold p's support) at the
    least width w with 2^w > max(deg(p), 1)."""
    deg = p.degree()
    width = max(deg, 1).bit_length()
    slot = {v: i * width for i, v in enumerate(variables)}
    den = lcm(*(c.denominator for c in p.coeffs.values())) * scale ** deg
    return {sum(e << slot[v] for v, e in m):
            c.numerator * (den // (c.denominator * scale ** _mono_degree(m)))
            for m, c in p.coeffs.items()}, den, width


def _packed_linear(row: Iterable[tuple[int, int]], width: int) -> dict[int, int]:
    """The linear polynomial sum(c * x_i) of (i, c) pairs, i a 0-based slot."""
    return {1 << (i * width): c for i, c in row}


def _packed_collect(terms: Mapping[int, int], k: int, width: int
                    ) -> dict[tuple[int, ...], dict[int, int]]:
    """{(e_0, ..., e_(k-1)): P_e} with the terms = sum_e x^e P_e, the P_e
    free of the first k slots and packed over the slots after them."""
    mask, bits = (1 << width) - 1, k * width
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for m, c in terms.items():
        key = tuple((m >> (j * width)) & mask for j in range(k))
        groups.setdefault(key, {})[m >> bits] = c
    return groups


def _add_unpacked(acc: dict, terms: Mapping[int, int], den: int,
                  variables: Sequence[int], width: int) -> None:
    """acc += sum(c * x^m) / den in place, acc a canonical {monomial:
    coefficient} dict; entries that cancel are dropped."""
    mask = (1 << width) - 1
    for m, c in terms.items():
        mono = []
        for v in variables:
            if m & mask:
                mono.append((v, m & mask))
            m >>= width
            if not m:
                break
        mono = tuple(mono)
        y = acc.get(mono, 0) + Fraction(c, den)
        if y:
            acc[mono] = y
        else:
            acc.pop(mono, None)


def _packed_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    acc: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            acc[m] = acc.get(m, 0) + ca * cb
    return {m: c for m, c in acc.items() if c}


def _packed_power(powers: list[dict[int, int]], e: int) -> dict[int, int]:
    """x^e, e >= 1, from powers = [x, x^2, ...], which grows in place as needed."""
    while len(powers) < e:
        powers.append(_packed_mul(powers[-1], powers[0]))
    return powers[e - 1]


def _packed_substitute(terms: Mapping[int, int], images: Sequence[Mapping[int, int]],
                       width: int) -> dict[int, int]:
    """sum(c * prod_i images[i]^e_i) over the terms, e_i the i-th exponent
    of the monomial; each image is packed at the same width."""
    mask = (1 << width) - 1
    powers = [[x] for x in images]
    acc: dict[int, int] = {}
    for m, c in terms.items():
        term = {0: c}
        for pw in powers:
            if not m:
                break
            if m & mask:
                term = _packed_mul(term, _packed_power(pw, m & mask))
            m >>= width
        for mt, ct in term.items():
            acc[mt] = acc.get(mt, 0) + ct
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
        for m, c in self.coeffs.items():
            term = Polynomial._trusted({tuple(x for x in m if x[0] not in values): c})
            for v, e in m:
                if v in values:
                    term = term * values[v] ** e
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
