"""Locality generalised evaluators and the Galois transforms relating them.

Three evaluators: minimal subtraction (exact), the iterated one-variable
scheme averaged over variable orders (exact, coordinate dependent), and the
multiple-zeta evaluator on combinations of Chen fractions (rigorous rational
enclosures of MZVs by the Hölder convolution at 1/2).  Transforms shift
Lyndon generators by constants and act on presentations term by term, leaving
holomorphic coefficients untouched.

Minimal subtraction is ev_0 after the projection onto the holomorphic part of
the splitting into holomorphic and polar germs.  Both parts are closed under
taking homogeneous components and the splitting is unique, so the projection
preserves degree and ms(f) depends only on the degree-0 part of f.  On a
combo, ms therefore evaluates one slice per term and skips the many terms
whose slice is zero; the other evaluators act term by term on whole germs.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (DependenceEscapesVars, DivergentIndex, EvaluatorDomain,
                     IncompatibleGenerators, NotChen, NotLocal, TooManyVariables,
                     _printable, limit)
from .exactlin import (DEFAULT_Q, InnerProduct, LinearForm, Q, orthogonal,
                       span, _Frozen, _Value, _as_fraction)
from .germs import RationalGerm, dependence, germ_scale, germ_sum, ms_eval
from .fracspec import (FractionSpec, SpecMonomial, _integer, lyndon_decompose,
                       monomial_mul, spec_monomial)
from .poly import ZERO, Polynomial
from .serialize import float_str
from .words import _ZERO, LinComb, local_word_pair


# ---------------------------------------------------------------------------
# the iterated (Speer-style) evaluator
# ---------------------------------------------------------------------------

def _splits(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Every r-tuple of nonnegative integers with sum n."""
    if not r:
        if not n:
            yield ()
        return
    for bars in itertools.combinations(range(n + r - 1), r - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, n + r - 1)))


def _reg_terms(f: RationalGerm, i: int) -> Iterator[RationalGerm]:
    """The terms whose sum is ev_reg_single(f, i).

    With z_i^m the pure pole and (a_j z_i + R_j)^s_j the mixed factors, the
    constant coefficient is [z_i^m] of the numerator times
    prod_j sum_t C(s_j+t-1, t) (-a_j)^t z_i^t / R_j^(s_j+t): one term per
    numerator slice N_d z_i^d (d <= m) and split of the m - d missing powers
    of z_i over the mixed factors.
    """
    m = 0
    mixed: list[tuple[Q, LinearForm, int]] = []  # (a, rest, exp), a != 0 != rest
    free: list[tuple[LinearForm, int]] = []
    for form, e in f.denominator:
        a = form.coeffs.get(i)
        if a is None:
            free.append((form, e))
        elif len(form.coeffs) == 1:  # a canonical pure factor is exactly z_i
            m += e
        else:
            rest = LinearForm._trusted({v: c for v, c in form.coeffs.items() if v != i})
            mixed.append((a, rest, e))
    for (d,), part in f.numerator.collect(i).items():
        for ts in _splits(m - d, len(mixed)) if d <= m else ():
            k = math.prod(math.comb(s + t - 1, t) * (-a) ** t
                          for (a, _, s), t in zip(mixed, ts))
            yield RationalGerm(part * k, free + [(r, s + t) for (_, r, s), t in zip(mixed, ts)])


def ev_reg_single(f: RationalGerm, i: int) -> RationalGerm:
    """Constant Laurent coefficient of f in the variable z_i, over the field
    of rational functions of the remaining variables.

    This is the generic branch: denominator factors involving other variables
    are treated as invertible at z_i = 0, which is the value off a measure-zero
    set of the remaining variables.
    """
    return germ_sum(_reg_terms(f, i))


def _blocks(f: RationalGerm) -> list[list[int]]:
    """The variables of f, grouped so that two share a block when a chain of
    denominator forms links them; a numerator-only variable is a block of its
    own.  Largest block first."""
    blocks = [{v} for v in f.variables()]
    for form, _ in f.denominator:
        linked = [b for b in blocks if not b.isdisjoint(form.coeffs)]
        blocks = [b for b in blocks if b.isdisjoint(form.coeffs)] + [set().union(*linked)]
    return sorted((sorted(b) for b in blocks), key=len, reverse=True)


def _value(g: RationalGerm) -> Fraction:
    """The average over the orderings of g's variables of the iterated
    constant coefficients: lead * _monic_value(g / lead), lead the
    numerator's lead_coefficient(), so that proportional terms reached along
    different orders, or in different calls, are evaluated once.  Values are
    cached across calls, in _monic_value."""
    if not g:
        return Fraction(0)
    lead = g.numerator.lead_coefficient()
    return lead * _monic_value(germ_scale(g, 1 / lead))


@functools.lru_cache(maxsize=8192)
def _monic_value(g: RationalGerm) -> Fraction:
    """_value of a germ whose numerator has lead coefficient 1.  A miss
    splits g into its _blocks.  With no block, g is its constant.  With one
    block of k variables, a uniform order starts at a uniform i and induces a
    uniform order on the variables of each term h of ev_reg_single(g, i), a
    variable h lacks being an identity step, so value(g) = (1/k) sum_i
    sum_h value(h).  With several, and the numerator written as
    sum_a P_a m_a, P_a in the first block's variables and m_a a monomial in
    the others', value(g) = sum_a value(P_a / D_1) prod_b value(m_ab / D_b),
    D_b the forms of block b.  This is exact: the constant coefficient in
    z_i passes through a factor free of z_i, so each order gives the product
    of the blocks' values in the orders it induces, and the average over all
    orders is the product of the averages."""
    blocks = _blocks(g)
    if not blocks:
        return g.numerator.constant_term()
    if len(blocks) == 1:
        return sum((_value(h) for i in blocks[0] for h in _reg_terms(g, i)),
                   Fraction(0)) / len(blocks[0])
    dens = [[(form, e) for form, e in g.denominator if form.support()[0] in vs]
            for vs in blocks]
    rest_vars = [v for vs in blocks[1:] for v in vs]
    value = Fraction(0)
    for exps, part in g.numerator.collect(*rest_vars).items():
        powers = dict(zip(rest_vars, exps))
        term = _value(RationalGerm(part, dens[0]))
        for vs, den in zip(blocks[1:], dens[1:]):
            if not term:
                break
            mono = Polynomial({tuple((v, powers[v]) for v in vs): 1})
            term *= _value(RationalGerm(mono, den))
        value += term
    return value


def iter_eval(f: RationalGerm, variables: Optional[Sequence[int]] = None,
              perm_cap: int = 8) -> Q:
    """Average of iterated single-variable regularised evaluations over all
    orderings of the variables (see _value); `perm_cap` caps their number."""
    # A germ depends on no form outside its own variables, so only an
    # explicit list needs the dependence check.
    check = variables is not None
    variables = sorted(set(variables if check else f.variables()))
    k = len(variables)
    if k > perm_cap:
        raise TooManyVariables(f"{k} variables exceeds the permutation cap {perm_cap}")
    if check:
        for form in dependence(f, DEFAULT_Q).basis:
            if not set(form.support()) <= set(variables):
                raise DependenceEscapesVars(f"germ depends on {form!r}")
    return _value(f)


# ---------------------------------------------------------------------------
# multiple zeta values: the Hölder convolution at 1/2
# ---------------------------------------------------------------------------

_DUAL = str.maketrans("01", "10")


def _zeta_str(s: tuple[int, ...]) -> str:
    return f"zeta({','.join(map(str, s))})"


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError(f"precision {precision} is negative")
    limit("precision", precision, "precision", ValueError)  # the work grows linearly with it


def _li_half(word: str, n_terms: int, scale: int) -> tuple[int, int]:
    """Floor and ceiling of scale * Li_r(1/2), the sum over n1 > ... > nm >= 1
    of 2^-n1 prod n_i^-r_i, where the 0/1 word ends in 1 and r_i is one more
    than the number of 0s just before its i-th 1.

    The nested sums run innermost first to n1 <= n_terms.  Every term is
    positive and the inner sum is at most n1^(m-1), so for n_terms >= 2m the
    tail is at most 6 (n_terms+1)^(m-1) 2^(-n_terms-1); the ceiling adds it.
    """
    r = [len(zeros) + 1 for zeros in word.split("1")[:-1]]
    if not r:
        return scale, scale
    ns = range(1, n_terms + 1)
    lo = hi = [scale] * n_terms  # at n: the inner levels summed below n
    for j in range(len(r) - 1, -1, -1):
        lo = [a // n ** r[j] for a, n in zip(lo, ns)]
        hi = [-(-a // n ** r[j]) for a, n in zip(hi, ns)]
        if j:
            lo = [0, *itertools.accumulate(lo[:-1])]
            hi = [0, *itertools.accumulate(hi[:-1])]
    tail = 6 * (n_terms + 1) ** (len(r) - 1) * scale
    return (sum(a >> n for a, n in zip(lo, ns)),
            sum(-(-a >> n) for a, n in zip(hi, ns)) - (-tail >> (n_terms + 1)))


def _truncation(n: int, precision: int) -> int:
    """The first n_terms from 2n + 10 (precision+2)/3 on with 6 (n+1)
    10^(precision+2) (n_terms+1)^(n-1) <= 2^(n_terms+1), which keeps each of
    the 2(n+1) factor tails of an MZV of weight n below 10^-(precision+2) / (n+1).
    The log of the left side over the right is concave in n_terms, so once it
    drops to 0 it stays there: a gallop passes that point, a bisection finds it."""
    bound = 6 * (n + 1) * 10 ** (precision + 2)
    short = lambda t: bound * (t + 1) ** (n - 1) > 2 ** (t + 1)
    lo, step = 2 * n + 10 * (precision + 2) // 3 - 1, 1  # lo: short, or before the start
    while short(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return hi


@functools.lru_cache(maxsize=1024)
def _mzv(s: tuple[int, ...], precision: int) -> tuple[Fraction, Fraction]:
    """Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst, Lisonek):
    with w = 0^(s1-1) 1 ... 0^(sk-1) 1 of length n, zeta(s) is the sum over
    i = 0..n of Li_{dual(w[:i])}(1/2) Li_{w[i:]}(1/2), where dual reverses a
    word and swaps 0 and 1.  Each factor has positive terms and is below 1,
    so a product's bounds are the products of the factors' bounds."""
    word = "".join("0" * (x - 1) + "1" for x in s)
    n = len(word)
    n_terms = _truncation(n, precision)
    # zeta(16) at 1000 digits (1.1e9) takes about 2 s with CPython 3.11
    limit("MZV work", (n + 1) ** 2 * n_terms * (precision + 100),
          f"MZV work of {_zeta_str(s)} at {precision} digits")
    # Rounding loses at most n_terms + n units per factor.
    scale = 10 ** (precision + 6) * n_terms * (n + 1)
    lo = hi = 0
    for i in range(n + 1):
        a_lo, a_hi = _li_half(word[:i][::-1].translate(_DUAL), n_terms, scale)
        b_lo, b_hi = _li_half(word[i:], n_terms, scale)
        lo += a_lo * b_lo
        hi += a_hi * b_hi
    lo, hi = lo // scale, -(-hi // scale)  # outward, to keep the Fractions small
    return Fraction(lo + hi, 2 * scale), Fraction(hi - lo, 2 * scale)


def mzv_numeric(s: Sequence[int], precision: int = 8) -> tuple[Fraction, Fraction]:
    """Multiple zeta value (sum over n1 > ... > nk >= 1 of prod n_j^{-s_j})
    as (value, error_bound) with |true - value| <= error_bound < 10^-precision.

    Raises TypeError for a non-int exponent, DivergentIndex when the leading
    exponent is 1, ValueError for a negative precision or one past the
    precision limit, and BudgetExceeded, before any summation, when (n+1)^2
    n_terms (precision+100) passes the MZV work limit, n the weight and
    n_terms the truncation length.  Results are memoised per (s, precision).
    """
    s = tuple(_integer(x, "exponents") for x in s)
    _check_precision(precision)
    if not s:
        return Fraction(1), Fraction(0)
    if any(x < 1 for x in s):
        raise ValueError("exponents must be positive integers")
    if s[0] < 2:
        raise DivergentIndex(f"{_zeta_str(s)} diverges (leading exponent 1)")
    return _mzv(s, precision)


# ---------------------------------------------------------------------------
# combinations of holomorphic coefficients times local fraction monomials
# ---------------------------------------------------------------------------

class GermCombo(_Value, fields=("terms",)):
    """Sum of terms h * S1 * ... * Sr: a polynomial coefficient times a
    locality monomial of fraction specs.  The explicit presentation is the
    domain of the zeta evaluator and of Galois transforms.  Terms are kept
    in one canonical order: by each spec's L-map name, then its word.  Specs
    under distinct L-maps of one name never merge; their terms tie in that
    order and keep the order they came in, and no value depends on it."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Polynomial, Sequence[FractionSpec]]]):
        merged: dict[SpecMonomial, Polynomial] = {}
        for h, specs in terms:
            if not isinstance(h, Polynomial):
                h = Polynomial.constant(_as_fraction(h))
            key = spec_monomial(specs)
            merged[key] = merged.get(key, ZERO) + h
        object.__setattr__(self, "terms", tuple(sorted(
            ((h, m) for m, h in merged.items() if h),
            key=lambda t: [s.sort_key() for s in t[1]])))

    # unhashable: a combo keys no memo, and an eager hash would hash every
    # coefficient of each combo that apply_transform builds
    __hash__ = None

    def term_germs(self) -> list[RationalGerm]:
        return [RationalGerm(h, _entries(specs)) for h, specs in self.terms]

    def germ(self) -> RationalGerm:
        return germ_sum(self.term_germs())

    def validate_locality(self, q: InnerProduct = DEFAULT_Q):
        """Check each monomial: specs pairwise local, every letter inside its
        L-map's alphabet with no vanishing cumulative form, coefficient
        orthogonal to the fraction part."""
        _validate_terms(self.terms, q)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({h!r})*" + ("*".join(map(repr, m)) or "1")
                          for h, m in self.terms)


def _entries(specs: Sequence[FractionSpec]) -> list[tuple[LinearForm, int]]:
    """The denominator entries of a spec product."""
    return [e for sp in specs for e in sp.denominator_entries()]


def _validate_terms(terms, q: InnerProduct) -> None:
    """GermCombo.validate_locality on a sequence of (h, specs) terms."""
    for h, specs in terms:
        for a, b in itertools.combinations(specs, 2):
            if not local_word_pair(a.letters, b.letters, a.lmap.alphabet):
                raise NotLocal(f"{a!r} and {b!r} share non-local letters")
        entries = _entries(specs)
        if entries:
            dep = h.dependence_space()  # the zero space is orthogonal to any span
            if dep.dim and not orthogonal(q, dep, span(f for f, _ in entries)):
                raise NotLocal(f"coefficient {h!r} not orthogonal to its fraction part")


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

class Evaluator:
    """A named evaluation procedure with (value, error_bound) results.

    `on_germ` takes a RationalGerm.  A combo's value is the sum of its
    terms' values (_term_values): each `term(h, specs)`, once `check(terms)`
    has passed on them all, or else `on_germ` of each term's germ.  Exact
    evaluators report a zero error bound.
    """

    def __init__(self, name: str,
                 on_germ: Optional[Callable[[RationalGerm], tuple[Fraction, Fraction]]] = None,
                 term: Optional[Callable[[Polynomial, SpecMonomial],
                                         tuple[Fraction, Fraction]]] = None,
                 check: Callable[[Sequence], None] = lambda terms: None):
        self.name = name
        self._on_germ, self._term, self._check = on_germ, term, check

    def eval_germ(self, f: RationalGerm) -> tuple[Fraction, Fraction]:
        if self._on_germ is not None:
            return self._on_germ(f)
        raise EvaluatorDomain(f"evaluator {self.name} needs an explicit presentation")

    def eval_combo(self, c: "GermCombo") -> tuple[Fraction, Fraction]:
        pairs = self._term_values(c.terms)  # under ms most terms are 0, and add nothing
        return sum([v for v, _ in pairs if v], _ZERO), sum([e for _, e in pairs if e], _ZERO)

    def _term_values(self, terms) -> list[tuple[Fraction, Fraction]]:
        """The (value, error_bound) of each canonical (h, specs) term of a
        combo: by term once check has passed on them all, or else as their
        germs, all built first (germ evaluators are linear, and each term is
        smaller than the sum)."""
        if self._term is not None:
            self._check(terms)
            return [self._term(h, specs) for h, specs in terms]
        germs = [RationalGerm(h, _entries(specs)) for h, specs in terms]
        return [self.eval_germ(g) for g in germs]

    def __repr__(self):
        return f"Evaluator({self.name})"


def _ms_term(h: Polynomial, specs: SpecMonomial, q: InnerProduct) -> tuple[Fraction, Fraction]:
    """ms of a term h*S from its degree-0 part: S is homogeneous of degree
    -w, w the sum of its exponents, so that part is h_w*S with h_w the
    degree-w part of h, and no germ is built when h_w = 0 (a constant over a
    nonempty spec product)."""
    entries = _entries(specs)
    h_w = h.homogeneous_part(sum(e for _, e in entries))
    return (ms_eval(RationalGerm(h_w, entries), q) if h_w else _ZERO), _ZERO


def ms_evaluator(q: InnerProduct = DEFAULT_Q) -> Evaluator:
    return Evaluator("ms", lambda f: (ms_eval(f, q), Fraction(0)),
                     term=lambda h, specs: _ms_term(h, specs, q))


def iter_evaluator(perm_cap: int = 8) -> Evaluator:
    return Evaluator("iter",
                     on_germ=lambda f: (iter_eval(f, perm_cap=perm_cap), Fraction(0)))


def _zeta_of_spec(spec: FractionSpec, precision: int) -> tuple[Fraction, Fraction]:
    s = spec.exponents
    if s[0] == 1:
        return Fraction(0), Fraction(0)
    return mzv_numeric(s, precision)


@functools.lru_cache(maxsize=1024)
def _spec_lyndon(spec: FractionSpec) -> types.MappingProxyType:
    """One spec's Lyndon decomposition {SpecMonomial: Fraction}, memoised and read-only
    since every caller shares it; a local spec whose word is Lyndon is its own."""
    if spec.is_lyndon():
        return types.MappingProxyType({(spec,): Fraction(1)})
    return types.MappingProxyType(lyndon_decompose([(spec, Fraction(1))]))


def _lyndon_product(specs: Sequence[FractionSpec]) -> LinComb:
    """The product of the specs' Lyndon decompositions: a combination of
    monomials in the Lyndon generators."""
    acc = LinComb({(): 1})
    for sp in specs:
        acc = acc.product(_spec_lyndon(sp), monomial_mul)
    return acc


def zeta_eval(combo: GermCombo, precision: int = 8,
              q: InnerProduct = DEFAULT_Q) -> tuple[Fraction, Fraction]:
    """Assign multiple zeta values to the Lyndon Chen generators and extend by
    locality multiplicativity and linearity; holomorphic coefficients
    contribute their value at zero.  Raises ValueError for a precision
    outside 0..LIMITS["precision"], and NotChen for a spec outside the Chen
    L-maps, whether or not an MZV is needed: a term whose coefficient
    vanishes at zero contributes 0 and computes none."""
    return zeta_evaluator(precision, q).eval_combo(combo)


@functools.lru_cache(maxsize=1024)
def _zeta_monomial(specs: SpecMonomial, precision: int) -> tuple[Fraction, Fraction]:
    """Midpoint and radius of the enclosure of the zeta value of one locality
    monomial: the sums of coeff (lo+hi)/2 and |coeff| (hi-lo)/2 over its
    Lyndon product, [lo, hi] the product of the generators' enclosures:
    for a Lyndon generator, its own MZV's."""
    if len(specs) == 1 and specs[0].is_lyndon():
        return _zeta_of_spec(specs[0], precision)
    mid = rad = Fraction(0)
    for mono, coeff in _lyndon_product(specs).items():
        # MZV enclosures are nonnegative, so bounds multiply directly
        lo = hi = Fraction(1)
        for gen in mono:
            val, err = _zeta_of_spec(gen, precision)
            lo, hi = lo * (val - err), hi * (val + err)
            if not hi:
                break
        mid += coeff * (lo + hi) / 2
        rad += abs(coeff) * (hi - lo) / 2
    return mid, rad


def zeta_evaluator(precision: int = 8, q: InnerProduct = DEFAULT_Q) -> Evaluator:
    _check_precision(precision)

    def on_germ(f: RationalGerm):
        if f.is_holomorphic():
            return f.numerator.constant_term(), Fraction(0)
        raise NotChen("zeta evaluation needs an explicit Chen presentation")

    def check(terms):
        _validate_terms(terms, q)
        for _, specs in terms:
            for sp in specs:
                if sp.lmap.name not in ("chen", "weak-chen"):
                    raise NotChen(f"{sp!r} is not a Chen fraction")

    def term(h: Polynomial, specs: SpecMonomial):
        """c0 times the monomial's enclosure, c0 = h(0); none is read when c0 = 0."""
        c0 = h.constant_term()
        if not c0:
            return _ZERO, _ZERO
        m, r = _zeta_monomial(specs, precision)
        return (m, r) if c0 == 1 else (c0 * m, abs(c0) * r)

    return Evaluator("zeta", on_germ, term, check)


# ---------------------------------------------------------------------------
# Galois transforms: constant shifts of the Lyndon generators
# ---------------------------------------------------------------------------

class GaloisTransform(_Frozen):
    """Generator substitution S -> S + c_S on a fixed set of Lyndon locality
    fraction specs, extended multiplicatively over locality monomials and
    linearly over presentations.  A transform is immutable (`shifts` is a
    read-only mapping), so the image of each monomial is computed once per
    transform, in _image."""

    __slots__ = ("shifts",)

    def __init__(self, shifts: dict[FractionSpec, Fraction]):
        for spec in shifts:
            if not spec.is_local():
                raise NotLocal(f"generator {spec!r} is not local")
            if not spec.exponents:
                raise ValueError("the empty fraction cannot be a generator")
            _check_lyndon(spec)
        object.__setattr__(self, "shifts", types.MappingProxyType(
            {s: _as_fraction(c) for s, c in shifts.items()}))

    def __reduce__(self):  # a read-only mapping does not pickle
        return GaloisTransform, (dict(self.shifts),)

    def generator_set(self) -> frozenset:
        return frozenset(self.shifts)

    def shift(self, spec: FractionSpec) -> Fraction:
        return self.shifts.get(spec, Fraction(0))

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.shifts.values())

    @functools.lru_cache(maxsize=1024)
    def _image(self, specs: SpecMonomial) -> tuple[tuple[SpecMonomial, Fraction], ...]:
        """The image of a locality monomial: its Lyndon product with every
        generator g replaced by g + c_g, as (monomial, coefficient) pairs.
        The cache keys the transform by identity."""
        shifted = LinComb()
        for mono, coeff in _lyndon_product(specs).items():
            image = LinComb({(): 1})
            for g in mono:
                image = image.product(LinComb({(): self.shift(g), (g,): 1}), monomial_mul)
            shifted.add(image, coeff)
        return tuple(shifted.items())

    def __repr__(self):
        inner_part = ", ".join(f"{s!r}+{_printable(c)}" for s, c in self.shifts.items())
        return f"GaloisTransform({inner_part})"


def _check_lyndon(spec: FractionSpec) -> None:
    """ValueError if a local, nonempty spec is not a Lyndon fraction."""
    if spec.exponents and spec.is_local() and not spec.is_lyndon():
        raise ValueError(f"generator {spec!r} is not a Lyndon fraction")


def galois_from_evaluator(e: Evaluator, generators: Sequence[FractionSpec]) -> GaloisTransform:
    """The shift transform with c_S = e(S) on each generator: e's value on
    the one-term combo 1*S, read from that term.  A local generator that is
    not Lyndon is refused before any is valued."""
    for g in generators:
        _check_lyndon(g)
    one = Polynomial.constant(1)  # each generator is the one term (1, (g,)), as GermCombo keys it
    return GaloisTransform({g: e._term_values(((one, spec_monomial((g,))),))[0][0]
                            for g in generators})


def apply_transform(t: GaloisTransform, combo: GermCombo,
                    q: InnerProduct = DEFAULT_Q) -> GermCombo:
    """Substitute S -> S + c_S in every locality monomial; coefficients pass
    through unchanged."""
    combo.validate_locality(q)
    return GermCombo([(h * coeff, mono) for h, specs in combo.terms
                      for mono, coeff in t._image(specs)])


def compose_transforms(t1: GaloisTransform, t2: GaloisTransform) -> GaloisTransform:
    """apply(compose(t1, t2), x) == apply(t1, apply(t2, x)) for constant shifts."""
    if t1.generator_set() != t2.generator_set():
        raise IncompatibleGenerators("transforms use different generator sets")
    return GaloisTransform({g: t1.shifts[g] + t2.shifts[g] for g in t1.shifts})


def invert_transform(t: GaloisTransform) -> GaloisTransform:
    return GaloisTransform({g: -c for g, c in t.shifts.items()})


class FactorizationReport:
    """Outcome of checking ms o transform == evaluator on a test set."""

    def __init__(self, entries: list[tuple[str, Fraction, Fraction, Fraction, bool]]):
        self.entries = entries

    @property
    def all_ok(self) -> bool:
        return all(ok for *_, ok in self.entries)

    def __repr__(self):
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: ms={float_str(lhs, 9)} "
                 f"e={float_str(rhs, 9)} |diff|={float_str(diff, 3)}"
                 for name, lhs, rhs, diff, ok in self.entries]
        return "\n".join(lines)


def check_factorization(e: Evaluator, t: GaloisTransform, tests: Sequence[GermCombo],
                        tol: Fraction = Fraction(0),
                        q: InnerProduct = DEFAULT_Q) -> FactorizationReport:
    """Verify |ms(apply(t, x)) - e(x)| <= tol on each test combo; a
    negative tol raises ValueError."""
    tol = _as_fraction(tol)
    if tol < 0:
        raise ValueError(f"tolerance {tol} is negative")
    ms = ms_evaluator(q)
    entries = []
    for x in tests:
        lhs, _err = ms.eval_combo(apply_transform(t, x, q))
        rhs, _err = e.eval_combo(x)
        diff = abs(lhs - rhs)
        entries.append((repr(x), lhs, rhs, diff, diff <= tol))
    return FactorizationReport(entries)
