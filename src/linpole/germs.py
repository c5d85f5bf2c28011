"""Meromorphic germs at zero with linear poles, over the rationals.

A germ is a numerator polynomial over a product of powers of homogeneous
linear forms.  Relative to an inner product q the germ splits canonically into
polar terms (numerator q-orthogonal to the supporting space of its simplex
denominator) plus a holomorphic polynomial; the splitting drives residues,
dependence subspaces and the locality (q-orthogonality) relation.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NotLocal
from .exactlin import (DEFAULT_Q, InnerProduct, LinearForm, Q, Subspace,
                       ZERO_SPACE, _Value, _as_fraction, _frame, find_circuit, orthogonal,
                       span, subspace_sum)
from .poly import Polynomial

DenEntry = tuple[LinearForm, int]


def _den_repr(entries: Iterable[DenEntry]) -> str:
    """The product of the entries as text that parse_germ reads back."""
    return "*".join(f"({f!r})^{e}" if e > 1 else f"({f!r})" for f, e in entries)


def _coerce_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, LinearForm):
        return Polynomial.from_linear(x)
    return Polynomial.constant(_as_fraction(x))


class RationalGerm(_Value, fields=("numerator", "denominator")):
    """numerator / product(form^exp); denominator forms need not be independent.

    Construction normalises to a canonical presentation: each denominator form
    is primitive (coprime integer coefficients, positive on its smallest
    variable) with scalars folded into the numerator, forms dividing the
    numerator exactly are cancelled, and the factor list is sorted.  Two equal
    rational functions therefore construct identical objects.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator: Iterable[DenEntry] = ()):
        num = _coerce_poly(numerator)
        dens: dict[LinearForm, int] = {}
        for form, exp in denominator:
            if not isinstance(form, LinearForm) or not form:
                raise ValueError(f"denominator factor must be a nonzero linear form, got {form!r}")
            if exp == 0:
                continue
            if exp < 0:
                num = num * Polynomial.from_linear(form) ** (-exp)
                continue
            prim, scalar = form.primitive()
            if scalar != 1:
                num = num * (Fraction(1) / scalar ** exp)
            dens[prim] = dens.get(prim, 0) + exp
        order = sorted(dens, key=LinearForm.key) if num else ()
        for form in order:
            while dens[form] > 0:
                quot = num.divide_by_form(form)
                if quot is None:
                    break
                num = quot
                dens[form] -= 1
        self._fill(num, tuple((f, dens[f]) for f in order if dens[f]))

    @classmethod
    def _trusted(cls, numerator: Polynomial, denominator: tuple) -> "RationalGerm":
        """Wrap a presentation that is already canonical, without normalising."""
        g = object.__new__(cls)
        g._fill(numerator, denominator)
        return g

    def _fill(self, numerator: Polynomial, denominator: tuple):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        self._hashed()

    def __bool__(self):
        return bool(self.numerator)

    def is_holomorphic(self) -> bool:
        return not self.denominator

    def variables(self) -> tuple[int, ...]:
        vs = set(self.numerator.support())
        for f, _ in self.denominator:
            vs.update(f.support())
        return tuple(sorted(vs))

    def evaluate(self, point: Mapping[int, Q]) -> Q:
        val = self.numerator.evaluate(point)
        for f, e in self.denominator:
            d = f.evaluate(point)
            if d == 0:
                raise ZeroDivisionError(f"point lies on the pole {f!r}")
            val /= d ** e
        return val

    def __repr__(self):
        """An expression that parse_germ reads back to an equal germ."""
        if not self.denominator:
            return repr(self.numerator)
        return f"({self.numerator!r})/({_den_repr(self.denominator)})"


ZERO_GERM = RationalGerm(0)


def germ_mul(f: RationalGerm, g: RationalGerm) -> RationalGerm:
    return RationalGerm(f.numerator * g.numerator,
                        list(f.denominator) + list(g.denominator))


def germ_scale(f: RationalGerm, k) -> RationalGerm:
    """k * f; a nonzero multiple of a canonical germ is canonical as it stands."""
    k = _as_fraction(k)
    return RationalGerm._trusted(f.numerator * k, f.denominator) if k else ZERO_GERM


def germ_sum(germs: Iterable[RationalGerm]) -> RationalGerm:
    """Sum over one common denominator, each (primitive) form at its largest
    exponent among the terms, normalised once."""
    germs = [g for g in germs if g]
    common: dict[LinearForm, int] = {}
    for g in germs:
        for form, e in g.denominator:
            common[form] = max(common.get(form, 0), e)
    nums = []
    for g in germs:
        num, own = g.numerator, dict(g.denominator)
        for form, e in common.items():
            gap = e - own.get(form, 0)
            if gap:
                num = num * Polynomial.from_linear(form) ** gap
        nums.append(num)
    return RationalGerm(Polynomial.sum(nums), common.items())


class SimplexFraction(_Value, fields=("entries",)):
    """1 / (L1^s1 ... Lk^sk) with linearly independent, canonically sorted forms."""

    __slots__ = ("entries", "_space")

    def __init__(self, entries: Iterable[DenEntry]):
        ent = tuple(sorted(entries, key=lambda t: t[0].key()))
        forms = [f for f, _ in ent]
        if any(e < 1 for _, e in ent):
            raise ValueError("exponents must be positive")
        space = span(forms)
        if space.dim != len(forms):
            raise ValueError("denominator forms must be linearly independent")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_space", space)
        self._hashed()

    @property
    def p_order(self) -> int:
        return sum(e for _, e in self.entries)

    def supporting_space(self) -> Subspace:
        return self._space

    def __repr__(self):
        return f"1/({_den_repr(self.entries)})"


class PolarTerm(_Value, fields=("numerator", "simplex")):
    """numerator * simplex fraction, with Dep(numerator) q-orthogonal to the
    supporting space of the denominator."""

    __slots__ = ("numerator", "simplex")

    def __init__(self, numerator: Polynomial, simplex: SimplexFraction):
        if not numerator:
            raise ValueError("polar term numerator must be nonzero")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "simplex", simplex)
        self._hashed()

    @property
    def p_order(self) -> int:
        return self.simplex.p_order

    def supporting_space(self) -> Subspace:
        return self.simplex.supporting_space()

    def germ(self) -> RationalGerm:
        return RationalGerm(self.numerator, self.simplex.entries)

    def __repr__(self):
        return f"({self.numerator!r})*{self.simplex!r}"


class Decomposition(_Value, fields=("terms", "holomorphic")):
    """Canonical splitting of a germ: polar terms plus a holomorphic part.

    Terms are grouped and ordered by (supporting-space key, p-order,
    denominator key); within one supporting space the simplex denominators are
    pairwise distinct.
    """

    __slots__ = ("terms", "holomorphic")

    def __init__(self, terms: Iterable[PolarTerm], holomorphic: Polynomial):
        merged: dict[SimplexFraction, PolarTerm] = {}
        for t in terms:  # a term whose simplex is new is kept as it is
            if t.simplex in merged:
                num = merged.pop(t.simplex).numerator + t.numerator
                if not num:
                    continue
                t = PolarTerm(num, t.simplex)
            merged[t.simplex] = t
        terms = tuple(sorted(merged.values(), key=lambda t: (
            t.supporting_space().key(), t.p_order,
            tuple((f.key(), e) for f, e in t.simplex.entries))))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "holomorphic", holomorphic)
        self._hashed()

    def is_zero(self) -> bool:
        return not self.terms and not self.holomorphic

    def __repr__(self):
        bits = [repr(t) for t in self.terms]
        if self.holomorphic or not bits:
            bits.append(repr(self.holomorphic))
        return " + ".join(bits)


def _split_simplex(num: Polynomial, den: tuple[DenEntry, ...], q: InnerProduct,
                   acc: dict, state):
    """Rewrite the numerator of an independent-denominator fraction, once,
    against the frame of its forms L_j (_frame): one substitution sends each
    z_v to sum_j a_vj t_j + P_v, with P_v its part q-orthogonal to the
    supporting space, and groups the result by the powers of the t_j, which
    stand for the L_j; t holds the first indices outside the variables.  A
    group's coefficient is a polynomial in the P_v, so q-orthogonal to the
    supporting space.  Finished groups go into acc, {denominator:
    [numerator, ...]} with the holomorphic part under (); a group with a
    surplus power of a form, times that surplus, goes into the numerators
    state(rem_den) of its smaller denominator.
    """
    forms = tuple(f for f, _ in den)
    support = num.support()
    variables = tuple(sorted(set(support).union(*(f.coeffs for f in forms))))
    t = list(itertools.islice((v for v in itertools.count(1) if v not in variables), len(forms)))
    images = {v: Polynomial.linear(itertools.chain(((t[j], x) for j, x in t_row), z_row), d)
              for v, (t_row, z_row, d) in zip(variables, _frame(q, forms, variables))
              if v in support}
    for exps, part in num.substitute_collect(images, *t).items():
        rem_den = tuple((f, e - s) for (f, e), s in zip(den, exps) if e > s)
        surplus = [(f, s - e) for (f, e), s in zip(den, exps) if s > e]
        for f, e in surplus:
            part = part * Polynomial.from_linear(f) ** e
        (state(rem_den) if surplus else acc.setdefault(rem_den, [])).append(part)


def decompose(f: RationalGerm, q: InnerProduct = DEFAULT_Q) -> Decomposition:
    """Canonical Laurent-type decomposition of the germ relative to q.

    recompose(decompose(f, q)) == f, every polar numerator is q-orthogonal to
    its supporting space, and the output depends only on the rational function
    f, not on its presentation.  Results are memoised per (germ, q), so equal
    germs share one (immutable) Decomposition.
    """
    return _decompose(f, q)


@functools.lru_cache(maxsize=1024)
def _decompose(f: RationalGerm, q: InnerProduct) -> Decomposition:
    """One worklist of states, one per denominator, each holding the
    numerators of every path that reached it, summed when it pops (a sum
    that cancels drops its state).  A dependent state is split by a circuit
    relation sum(c_i L_i) - L_p = 0 (L_p its first member with coefficient
    -1), which trades one power of each other L_i for one of L_p; an
    independent one by one _split_simplex; the empty denominator is the
    holomorphic part.  No split adds a form: a circuit split keeps the
    family (whose circuit is fixed and pivot exponent grows) or drops a
    form, an overflow drops one.  So states pop with more forms first, then
    a lower pivot exponent, each after all of its parents, and each is
    split once.
    """
    splits, nums, heap, order, acc = {}, {}, [], itertools.count(), {}

    def state(entries):  # the numerators of this denominator, queued when new
        d = tuple(sorted(entries, key=lambda t: t[0].key()))
        if not d:
            return acc.setdefault((), [])
        if d not in nums:
            forms = tuple(f for f, _ in d)
            if forms not in splits:  # (pivot, circuit), None when independent
                circuit = find_circuit(forms)
                splits[forms] = circuit and (
                    next(i for i, c in zip(*circuit) if c == -1), circuit)
            split, nums[d] = splits[forms], []
            heapq.heappush(heap, (-len(d), d[split[0]][1] if split else 0, next(order), d))
        return nums[d]

    state(f.denominator).append(f.numerator)
    while heap:
        d = heapq.heappop(heap)[-1]
        n, split = Polynomial.sum(nums.pop(d)), splits[tuple(f for f, _ in d)]
        if n and split is None:
            _split_simplex(n, d, q, acc, state)
        elif n:
            pivot, circuit = split
            for i, c in zip(*circuit):
                if i != pivot:
                    nd = {**dict(d), d[i][0]: d[i][1] - 1, d[pivot][0]: d[pivot][1] + 1}
                    state((f, e) for f, e in nd.items() if e).append(n * c)
    holo = Polynomial.sum(acc.pop((), []))
    sums = ((den, Polynomial.sum(nums)) for den, nums in acc.items())
    return Decomposition([PolarTerm(num, SimplexFraction(den)) for den, num in sums if num], holo)


def recompose(d: Decomposition) -> RationalGerm:
    """Sum the decomposition back into a normalised germ."""
    return germ_sum([t.germ() for t in d.terms] + [RationalGerm(d.holomorphic)])


def project_plus(f: RationalGerm, q: InnerProduct = DEFAULT_Q) -> Polynomial:
    """Holomorphic part of the canonical decomposition (the projection pi_+)."""
    return decompose(f, q).holomorphic


def ms_eval(f: RationalGerm, q: InnerProduct = DEFAULT_Q) -> Q:
    """Minimal subtraction: evaluate the holomorphic part at zero."""
    return project_plus(f, q).constant_term()


def _residue(f: RationalGerm, q: InnerProduct, level) -> Decomposition:
    """The decomposition's terms at the top value of `level`, numerators
    frozen at zero."""
    d = decompose(f, q)
    top = max((level(t) for t in d.terms), default=0)
    terms = []
    for t in d.terms:
        if level(t) == top:
            c = t.numerator.constant_term()
            if c:
                terms.append(PolarTerm(Polynomial.constant(c), t.simplex))
    return Decomposition(terms, Polynomial())


def p_residue(f: RationalGerm, q: InnerProduct = DEFAULT_Q) -> Decomposition:
    """Top-p-order part of the decomposition, numerators frozen at zero."""
    return _residue(f, q, lambda t: t.p_order)


def d_residue(f: RationalGerm, q: InnerProduct) -> Decomposition:
    """Top-supporting-dimension part, numerators frozen at zero.

    The inner product is a required argument: unlike the p-residue this
    genuinely depends on it.
    """
    return _residue(f, q, lambda t: t.supporting_space().dim)


def dependence(f: RationalGerm, q: InnerProduct = DEFAULT_Q) -> Subspace:
    """Smallest subspace of linear forms through which the germ factors, assembled
    additively over the canonical decomposition; memoised per (germ, q), like decompose."""
    return _dependence(f, q)


@functools.lru_cache(maxsize=1024)
def _dependence(f: RationalGerm, q: InnerProduct) -> Subspace:
    d = decompose(f, q)
    pieces = [ZERO_SPACE]
    for t in d.terms:
        pieces.append(t.supporting_space())
        pieces.append(t.numerator.dependence_space())
    pieces.append(d.holomorphic.dependence_space())
    return subspace_sum(*pieces)


def is_local_pair(f: RationalGerm, g: RationalGerm, q: InnerProduct = DEFAULT_Q) -> bool:
    """The locality relation: dependence subspaces q-orthogonal."""
    return orthogonal(q, dependence(f, q), dependence(g, q))


def locality_mul(f: RationalGerm, g: RationalGerm, q: InnerProduct = DEFAULT_Q) -> RationalGerm:
    """Product in the locality algebra; defined only on local pairs."""
    if not is_local_pair(f, g, q):
        raise NotLocal("germs are not q-orthogonal; locality product undefined")
    return germ_mul(f, g)
