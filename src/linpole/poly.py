"""Sparse multivariate polynomials over the rationals.

Monomials are tuples of (variable, exponent) pairs sorted by variable; terms
are kept in graded-lexicographic order for display and canonical equality.
Variables are the same 1-based indices as in exactlin.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Mapping

from .exactlin import LinearForm, Q, _as_fraction

Monomial = tuple[tuple[int, int], ...]  # ((var, exp), ...) sorted by var


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _grlex_key(m: Monomial):
    top = max((v for v, _ in m), default=0)
    return (_mono_degree(m), tuple(-next((e for w, e in m if w == v), 0) for v in range(1, top + 1)))


class Polynomial:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Q] | Iterable[tuple[Monomial, Q]] = ()):
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        acc: dict[Monomial, Fraction] = {}
        for m, c in items:
            m = tuple(sorted((v, e) for v, e in m if e))
            if any(e < 0 or v < 1 for v, e in m):
                raise ValueError(f"bad monomial {m!r}")
            c = _as_fraction(c)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + c
        clean = tuple(sorted(((m, c) for m, c in acc.items() if c),
                             key=lambda t: _grlex_key(t[0])))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", hash(clean))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(): _as_fraction(c)})

    @staticmethod
    def variable(v: int) -> "Polynomial":
        return Polynomial({((v, 1),): Fraction(1)})

    @staticmethod
    def from_linear(form: LinearForm) -> "Polynomial":
        return Polynomial({((v, 1),): c for v, c in form.coeffs.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return Polynomial(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            return Polynomial({m: k * c for m, c in self.terms})
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial(acc)

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
        return max((_mono_degree(m) for m, _ in self.terms), default=0)

    def support(self) -> tuple[int, ...]:
        vs = {v for m, _ in self.terms for v, _ in m}
        return tuple(sorted(vs))

    def constant_term(self) -> Q:
        for m, c in self.terms:
            if not m:
                return c
        return Fraction(0)

    def is_constant(self) -> bool:
        return all(not m for m, _ in self.terms)

    def evaluate(self, point: Mapping[int, Q]) -> Q:
        total = Fraction(0)
        for m, c in self.terms:
            val = c
            for v, e in m:
                val *= _as_fraction(point.get(v, 0)) ** e
            total += val
        return total

    def partial(self, v: int) -> "Polynomial":
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            d = dict(m)
            e = d.get(v, 0)
            if e:
                d[v] = e - 1
                mm = tuple(sorted((w, k) for w, k in d.items() if k))
                acc[mm] = acc.get(mm, Fraction(0)) + c * e
        return Polynomial(acc)

    def substitute(self, values: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each variable in `values` by a polynomial; others stay."""
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            term = Polynomial.constant(c)
            for v, e in m:
                repl = values.get(v)
                term = term * (repl ** e if repl is not None else Polynomial({((v, e),): 1}))
            for mm, k in term.terms:
                acc[mm] = acc.get(mm, 0) + k
        return Polynomial(acc)

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        return Polynomial({tuple(sorted((mapping.get(v, v), e) for v, e in m)): c
                           for m, c in self.terms})

    def collect(self, v: int) -> dict[int, "Polynomial"]:
        """{k: P_k} with self = sum_k P_k z_v^k and no P_k involving z_v."""
        groups: dict[int, list[tuple[Monomial, Fraction]]] = {}
        for m, c in self.terms:
            k = next((e for w, e in m if w == v), 0)
            groups.setdefault(k, []).append((tuple(x for x in m if x[0] != v), c))
        return {k: Polynomial(t) for k, t in groups.items()}

    def divide_by_form(self, form: LinearForm) -> "Polynomial | None":
        """Exact quotient self / form, or None when the form does not divide.

        Synthetic division in the smallest variable v of the form: with
        form = c z_v + R and self = sum_k P_k z_v^k, the quotient is
        sum_k Q_k z_v^k with Q_{k-1} = (P_k - R Q_k) / c from the top degree
        down, and the form divides exactly iff R Q_0 = P_0.
        """
        if not form:
            raise ZeroDivisionError("division by the zero form")
        v = min(form.coeffs)
        inv = 1 / form.coeffs[v]
        minus_r = Polynomial((((w, 1),), -a * inv) for w, a in form.coeffs.items() if w != v)
        parts = self.collect(v)
        quot: list[tuple[Monomial, Fraction]] = []
        carry = ZERO  # -R Q_k / c
        for k in range(max(parts, default=0), 0, -1):
            q = parts[k] * inv + carry if k in parts else carry
            quot.extend((m + ((v, k - 1),), c) for m, c in q.terms)
            carry = minus_r * q
        if carry != parts.get(0, ZERO) * -inv:
            return None
        return Polynomial(quot)

    def dependence_space(self):
        """Smallest space of linear forms this polynomial factors through.

        With M[m][v] the coefficient of monomial m in dP/dz_v, the directions
        of vanishing derivative are ker M, and their annihilator under the
        standard pairing is the row space of M.
        """
        from .exactlin import span

        rows: dict[Monomial, dict[int, Fraction]] = {}
        for m, c in self.terms:
            for i, (v, e) in enumerate(m):
                lower = m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]
                rows.setdefault(lower, {})[v] = c * e
        return span(LinearForm(row) for row in rows.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in reversed(self.terms):
            mono = "*".join(f"z{v}^{e}" if e > 1 else f"z{v}" for v, e in m)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ZERO = Polynomial()
ONE = Polynomial.constant(1)
