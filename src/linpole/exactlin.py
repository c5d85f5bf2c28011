"""Exact rational linear algebra on the sparse filtered space spanned by z1, z2, ...

Linear forms live in the direct limit of the duals of Q^k: a form is a finite
sparse map from 1-based variable indices to nonzero rationals.  Everything here
is exact, immutable and pure.  Forms and every public value returned from this
module hold fractions.Fraction; inside, one fraction-free elimination
(`_eliminate`) works on integer rows, and the Fractions are made where its
results leave.  `_frame` alone returns integer rows, which the simplex split
of germs keeps integral.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import LinpoleError

Q = Fraction  # the coefficient field


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class _Frozen:
    """Base of the value types: an instance cannot be changed once built, so
    it is safe as a memo key and can be shared, and a copy is the object
    itself, as for Fraction.  Constructors fill their slots through
    object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class LinearForm(_Frozen):
    """A rational linear form sum(c_v * z_v) with finite support."""

    __slots__ = ("coeffs", "_hash", "_key")

    def __init__(self, coeffs: Mapping[int, Q] | Iterable[tuple[int, Q]] = ()):
        items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
        clean = {}
        for v, c in items:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"variable index must be a positive integer, got {v!r}")
            c = _as_fraction(c)
            if c:
                clean[v] = clean.get(v, Fraction(0)) + c
        self._fill({v: c for v, c in sorted(clean.items()) if c})

    @classmethod
    def _trusted(cls, coeffs: dict[int, Fraction]) -> "LinearForm":
        """Wrap a canonical dict (ascending keys, nonzero Fractions) unchecked."""
        f = object.__new__(cls)
        f._fill(coeffs)
        return f

    def _fill(self, coeffs: dict[int, Fraction]):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash(tuple(coeffs.items())))
        object.__setattr__(self, "_key", tuple((1, -v, c) if c > 0 else (-1, v, c)
                                               for v, c in coeffs.items()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        c = dict(self.coeffs)
        for v, x in other.coeffs.items():
            c[v] = c.get(v, Fraction(0)) + x
        return LinearForm(c)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm._trusted({v: -c for v, c in self.coeffs.items()})

    def scale(self, k) -> "LinearForm":
        k = _as_fraction(k)
        if not k:
            return LinearForm()
        return LinearForm._trusted({v: k * c for v, c in self.coeffs.items()})

    def __getitem__(self, v: int) -> Q:
        return self.coeffs.get(v, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(self.coeffs)

    def evaluate(self, point: Mapping[int, Q]) -> Q:
        return sum((c * _as_fraction(point.get(v, 0)) for v, c in self.coeffs.items()),
                   Fraction(0))

    def key(self) -> tuple:
        """Total-order key: the coefficients along z1, z2, ... to each form's
        last variable, compared lexicographically; a gap counts as 0 and a
        form that ends first is the smaller, so z1 > z2 and z1 < z1 - z2.
        Built with the form, one entry per variable v of coefficient c:
        (1, -v, c) for c > 0, (-1, v, c) for c < 0; not hashed, since
        hash(-1) == hash(-2)."""
        return self._key

    def primitive(self) -> tuple["LinearForm", Q]:
        """Return (canonical primitive form, scalar) with self = scalar * form.

        The canonical representative has coprime integer coefficients and a
        positive coefficient on its smallest variable.
        """
        if not self.coeffs:
            return self, Fraction(1)
        row, den = _int_row(self.coeffs)
        num = gcd(*row.values())
        if self.coeffs[min(self.coeffs)] < 0:
            num = -num
        if num == den:
            return self, Fraction(1)
        return (LinearForm._trusted({v: Fraction(x // num) for v, x in row.items()}),
                Fraction(num, den))

    def __repr__(self):
        return _signed_sum((c, f"z{v}") for v, c in self.coeffs.items())


def _signed_sum(terms: Iterable[tuple[Q, str]]) -> str:
    """Print a sum of (coefficient, monomial text) terms: a coefficient of 1
    or -1 is elided, an empty monomial prints the coefficient alone, and a
    negative term after the first joins with " - " and its absolute value."""
    out = ""
    for c, mono in terms:
        text = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        if out:
            out += f" - {text}" if c < 0 else f" + {text}"
        else:
            out = f"-{text}" if c < 0 else text
    return out or "0"


def zvar(v: int) -> LinearForm:
    """The coordinate form z_v."""
    if not isinstance(v, int) or v < 1:
        raise ValueError(f"variable index must be a positive integer, got {v!r}")
    return LinearForm._trusted({v: Fraction(1)})


def zset(indices: Iterable[int]) -> LinearForm:
    """z_I = sum of z_i over a finite nonempty index set."""
    form = LinearForm({i: Fraction(1) for i in indices})
    if not form:
        raise ValueError("z_I needs a nonempty index set")
    return form


class InnerProduct(_Frozen):
    """Inner product on the filtered space: a rational SPD Gram block on the
    first n variables, extended by the identity beyond.

    The default (no block) is the standard dot product for the orthonormal
    coordinates z1, z2, ...  Immutable, since it keys the memoised results of
    exactlin and germs.
    """

    __slots__ = ("gram", "_hash")

    def __init__(self, gram: Sequence[Sequence] | None = None):
        g: tuple[tuple[Q, ...], ...] = ()
        if gram is not None:
            g = tuple(tuple(_as_fraction(x) for x in row) for row in gram)
            n = len(g)
            if any(len(row) != n for row in g):
                raise ValueError("gram block must be square")
            for i in range(n):
                for j in range(i):
                    if g[i][j] != g[j][i]:
                        raise ValueError("gram block must be symmetric")
            # Eliminating the rows in order leaves pivot D_k/D_(k-1) at variable
            # k, the ratio of leading minors, so all are > 0 exactly when the
            # block is positive definite.
            rows = ({j + 1: x for j, x in enumerate(row)} for row in g)
            for k, (red, _) in enumerate(_eliminate(rows), 1):
                if red.get(k, 0) <= 0:
                    raise ValueError("gram block must be positive definite")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_hash", hash(g))

    @property
    def block_size(self) -> int:
        return len(self.gram)

    def __call__(self, a: LinearForm, b: LinearForm) -> Q:
        return inner(self, a, b)

    def __eq__(self, other):
        return isinstance(other, InnerProduct) and self.gram == other.gram

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "InnerProduct(default)" if not self.gram else f"InnerProduct({len(self.gram)}x{len(self.gram)} block)"


DEFAULT_Q = InnerProduct()


def inner(q: InnerProduct, a: LinearForm, b: LinearForm) -> Q:
    """Symmetric bilinear value of the two forms under q."""
    n, bc = q.block_size, b.coeffs
    total = 0
    for i, ai in a.coeffs.items():
        if i <= n:
            for j, bj in bc.items():
                if j <= n:
                    total += q.gram[i - 1][j - 1] * (ai * bj)
        else:
            bi = bc.get(i)
            if bi:
                total += ai * bi
    return Fraction(total)


class Subspace(_Frozen):
    """A finite-dimensional subspace of linear forms, held as a reduced
    row-echelon basis over the ascending variable support.  Canonical: two
    constructions of the same subspace compare equal.
    """

    __slots__ = ("basis", "_hash")

    def __init__(self, basis: Sequence[LinearForm]):
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_hash", hash(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return self._hash

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(f) for f in self.basis)

    def contains(self, form: LinearForm) -> bool:
        *_, (red, _) = _eliminate(f.coeffs for f in (*self.basis, form))
        return not red

    def key(self) -> tuple:
        return tuple(f.key() for f in self.basis)

    def __repr__(self):
        return f"span[{', '.join(map(repr, self.basis))}]"


ZERO_SPACE = Subspace(())


def _int_row(coeffs: Mapping[int, Q]) -> tuple[dict[int, int], int]:
    """(d * row, d) for the least common denominator d > 0 of the row's
    entries, with zero entries dropped."""
    d = lcm(*(c.denominator for c in coeffs.values()))
    return {v: c.numerator * (d // c.denominator) for v, c in coeffs.items() if c}, d


def _eliminate(rows: Iterable[Mapping[int, Q]]
               ) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """Incremental fraction-free Gaussian elimination over {var: rational}
    rows in list order (Bareiss, Math. Comp. 22, 1968).

    For each input yields (residual, combo), both integer dicts with
    residual = sum(combo[i] * input_i): the input reduced against the earlier
    independent inputs, so a zero residual is a linear relation.  The residual
    is a positive multiple of the one exact rational elimination gives, so its
    support and signs are those of the rational residual.  Each step
    cross-multiplies by the cofactors of the gcd of the two entries and
    divides out the gcd of the row and its combo.  Rows pivot on their
    smallest variable, stored with a positive pivot; no other routine knows
    that convention.  The yielded dicts are the working rows: change them
    only once the generator is exhausted.
    """
    pivots: list[tuple[int, int, dict[int, int], dict[int, int]]] = []  # (var, p, row, combo)
    for idx, coeffs in enumerate(rows):
        red, d = _int_row(coeffs)
        combo = {idx: d}
        for piv, p, row, row_combo in pivots:
            k = red.get(piv)
            if k:
                g = gcd(p, k)
                a = p // g
                if a != 1:
                    red = {v: a * x for v, x in red.items()}
                    combo = {i: a * x for i, x in combo.items()}
                _axpy(red, -(k // g), row)
                _axpy(combo, -(k // g), row_combo)
                g = gcd(*red.values(), *combo.values())
                if g != 1:
                    red = {v: x // g for v, x in red.items()}
                    combo = {i: x // g for i, x in combo.items()}
        yield red, combo
        if red:
            piv = min(red)
            if red[piv] < 0:
                red = {v: -x for v, x in red.items()}
                combo = {i: -x for i, x in combo.items()}
            pivots.append((piv, red[piv], red, combo))


def _axpy(acc: dict[int, Q], k: Q, row: Mapping[int, Q]) -> None:
    """acc += k * row in place, dropping entries that cancel."""
    for v, x in row.items():
        y = acc.get(v, 0) + k * x
        if y:
            acc[v] = y
        else:
            acc.pop(v, None)


def span(forms: Iterable[LinearForm]) -> Subspace:
    """Canonical subspace spanned by the given forms (RREF, pivots ascending).
    Memoised per tuple of forms, so equal inputs share one Subspace."""
    return _span(tuple(forms))


@functools.lru_cache(maxsize=1024)
def _span(forms: tuple[LinearForm, ...]) -> Subspace:
    rows = sorted((red for red, _ in _eliminate(f.coeffs for f in forms) if red), key=min)
    for i in reversed(range(len(rows))):  # back-substitute into RREF
        piv = min(rows[i])
        inv = Fraction(1, rows[i][piv])
        rows[i] = row = {v: x * inv for v, x in rows[i].items()}
        for above in rows[:i]:
            k = above.get(piv)
            if k:
                _axpy(above, -k, row)
    return Subspace([LinearForm._trusted(dict(sorted(r.items()))) for r in rows])


def subspace_sum(*spaces: Subspace) -> Subspace:
    forms = [f for s in spaces for f in s.basis]
    return span(forms)


def orthogonal(q: InnerProduct, u: Subspace, v: Subspace) -> bool:
    """True iff every basis pair across the two subspaces is q-orthogonal."""
    return all(inner(q, a, b) == 0 for a in u.basis for b in v.basis)


@functools.lru_cache(maxsize=1024)
def _frame(q: InnerProduct, forms: tuple[LinearForm, ...],
           variables: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Coordinates adapted to the independent forms L_1..L_k inside the span
    W of the coordinate forms z_v, v in `variables` (which hold every
    variable of the forms): y = (t, m) with t_j = L_j and m_i = M_i, where
    M_1..M_(n-k) are integer forms of W, q-orthogonal to every L_j.

    Returns (M, inverse).  M_i is a tuple of (variable, integer) pairs: a
    relation among the columns (q(L_j, z_w))_j of the k x n matrix, so
    sum_w M_i[w] q(L_j, z_w) = 0.  inverse[p] is (row, den) with
    z_v = sum_r row[r] y_r / den for v = variables[p], row a tuple of
    (index into y, integer) pairs: the relation a unit row z_v gets after
    the rows of T = [L; M], which span W.  Memoised per (q, forms,
    variables), and immutable.
    """
    # Scaling a form to its integer row scales one entry of every column,
    # and scaling q by the common denominator g of its Gram block scales
    # every column: neither changes the relations, and the columns are ints.
    scaled = [_int_row(f.coeffs)[0] for f in forms]
    g, block = lcm(*(x.denominator for row in q.gram for x in row)), q.block_size
    gram = [[int(x * g) for x in row] for row in q.gram]
    columns = ({j: sum(x * gram[i - 1][w - 1] for i, x in row.items() if i <= block)
                if w <= block else g * row.get(w, 0) for j, row in enumerate(scaled)}
               for w in variables)
    complement = tuple(tuple((variables[p], x) for p, x in sorted(combo.items()))
                       for red, combo in _eliminate(columns) if not red)
    n = len(variables)
    rows = itertools.chain((f.coeffs for f in forms), (dict(m) for m in complement),
                           ({v: 1} for v in variables))
    relations = itertools.islice(_eliminate(rows), n, None)
    inverse = tuple((tuple((r, -x) for r, x in sorted(combo.items()) if r < n), combo[n + p])
                    for p, (_, combo) in enumerate(relations))
    return complement, inverse


def orth_decompose(q: InnerProduct, f: LinearForm, u: Subspace) -> tuple[LinearForm, LinearForm]:
    """Split f = a + b with a in u and b q-orthogonal to u (unique, exact):
    a is the t-part of f in the frame adapted to u's basis."""
    variables = tuple(sorted(set(f.coeffs).union(*(b.coeffs for b in u.basis))))
    _, inverse = _frame(q, u.basis, variables)
    a = {}
    for v, (row, den) in zip(variables, inverse):
        c = f[v]
        for r, x in row:
            if c and r < u.dim:
                _axpy(a, c * Fraction(x, den), u.basis[r].coeffs)
    a = LinearForm(a)
    return a, f - a


def find_circuit(forms: Sequence[LinearForm]) -> tuple[tuple[int, ...], tuple[Q, ...]] | None:
    """Find a minimal linearly dependent subset (a circuit) of the form list.

    Returns None when the forms are independent; otherwise (indices, coeffs)
    with sum(coeffs[i] * forms[indices[i]]) = 0 exactly, scaled so that the
    lexicographically-largest form in the circuit has coefficient -1.

    Scans prefixes in list order, so the result is deterministic; the circuit
    is the fundamental circuit of the first form that depends on its
    predecessors (minimality: dropping any member leaves an independent set).
    """
    for red, combo in _eliminate(f.coeffs for f in forms):
        if not red:
            members = sorted(combo)
            largest = max(members, key=lambda i: forms[i].key())
            return tuple(members), tuple(Fraction(-combo[i], combo[largest]) for i in members)
    return None


def load_inner_product(path: str) -> InnerProduct:
    """Read an inner-product config file: {"gram": [["p/q", ...], ...]}.

    Entries are integers or rational strings; a file of any other shape
    raises LinpoleError.
    """
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "gram" not in data:
        raise LinpoleError(f'{path}: expected a JSON object with a "gram" key')
    gram = data["gram"]
    if not (isinstance(gram, list) and all(isinstance(row, list) for row in gram)
            and all(isinstance(x, str) or type(x) is int for row in gram for x in row)):
        raise LinpoleError(f'{path}: "gram" must be a list of rows of integers '
                           'or "p/q" strings')
    return InnerProduct(gram)
