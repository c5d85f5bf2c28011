"""Exact rational linear algebra on the sparse filtered space spanned by z1, z2, ...

Linear forms live in the direct limit of the duals of Q^k: a form is a finite
sparse map from 1-based variable indices to nonzero rationals.  Everything here
is exact, immutable and pure.  Forms and every public value returned from this
module hold fractions.Fraction; inside, one fraction-free elimination
(`_eliminate`) works on integer rows, and the Fractions are made where its
results leave.  A form keeps its integer row once it is read, so a form
enters the elimination with no conversion after its first.  `_frame` alone
returns integer rows, which the simplex split of germs keeps integral.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import LinpoleError, _decode_json, _printable, limit

Q = Fraction  # the coefficient field

_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")


def _as_fraction(x) -> Fraction:
    """x as a Fraction: an int, or a rational string whose digit runs (an
    underscore joins two) and decimal exponent stay within the integer
    digits limit, checked before Fraction reads it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        digits = x.replace("_", "")
        limit("integer digits", max(map(len, re.findall(r"\d+", digits)), default=0),
              "rational literal digits")
        if exponent := _EXPONENT.search(digits):
            limit("integer digits", int(exponent[1]), "rational literal exponent")
    elif not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"cannot coerce {x!r} to a rational")
    return Fraction(x)


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


class _Value(_Frozen):
    """Base of the types that compare by value.  A subclass names its fields
    once, `class C(_Value, fields=(...))`: two values are equal when they are
    one object, or of one type with equal fields, compared one at a time;
    the constructor calls `_hashed()` once to store the hash of the field,
    or of the tuple of fields."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, fields: tuple[str, ...]):
        cls._fields = fields
        cls._field_values = operator.attrgetter(*fields)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return False
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return self._hash

    def _hashed(self):
        object.__setattr__(self, "_hash", hash(self._field_values(self)))


class LinearForm(_Value, fields=("coeffs",)):
    """A rational linear form sum(c_v * z_v) with finite support."""

    __slots__ = ("coeffs", "_key", "_row")

    def __init__(self, coeffs: Mapping[int, Q] | Iterable[tuple[int, Q]] = ()):
        items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
        clean = {}
        for v, c in items:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
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
        object.__setattr__(self, "_hash", hash(tuple(coeffs.items())))  # a dict does not hash
        plain = ((v, c.numerator if c.denominator == 1 else c) for v, c in coeffs.items())
        object.__setattr__(self, "_key", tuple((1, -v, x) if x > 0 else (-1, v, x)
                                               for v, x in plain))

    def __bool__(self):
        return bool(self.coeffs)

    def _integer_row(self) -> tuple[dict[int, int], int]:
        """`_int_row(coeffs)`, (d * row, d), which the exact linear algebra
        reads: kept in the `_row` slot on first use, so a form that never
        enters it builds none."""
        if not hasattr(self, "_row"):
            object.__setattr__(self, "_row", _int_row(self.coeffs))
        return self._row

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
        (1, -v, c) for c > 0, (-1, v, c) for c < 0, an integral c as an int,
        which compares with a Fraction exactly and faster; not hashed in
        place of the form, since hash(-1) == hash(-2)."""
        return self._key

    def primitive(self) -> tuple["LinearForm", Q]:
        """Return (canonical primitive form, scalar) with self = scalar * form.

        The canonical representative has coprime integer coefficients and a
        positive coefficient on its smallest variable.
        """
        if not self.coeffs:
            return self, Fraction(1)
        row, den = self._integer_row()
        num = gcd(*row.values())
        if row[min(row)] < 0:
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
        _printable(c)
        text = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        if out:
            out += f" - {text}" if c < 0 else f" + {text}"
        else:
            out = f"-{text}" if c < 0 else text
    return out or "0"


def zvar(v: int) -> LinearForm:
    """The coordinate form z_v."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"variable index must be a positive integer, got {v!r}")
    return LinearForm._trusted({v: Fraction(1)})


def zset(indices: Iterable[int]) -> LinearForm:
    """z_I = sum of z_i over a finite nonempty index set."""
    form = LinearForm({i: Fraction(1) for i in indices})
    if not form:
        raise ValueError("z_I needs a nonempty index set")
    return form


class InnerProduct(_Value, fields=("gram",)):
    """Inner product on the filtered space: a rational SPD Gram block on the
    first n variables, extended by the identity beyond.

    The default (no block) is the standard dot product for the orthonormal
    coordinates z1, z2, ...  Immutable, since it keys the memoised results of
    exactlin and germs.
    """

    __slots__ = ("gram",)

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
            rows = (_int_row({j + 1: x for j, x in enumerate(row)}) for row in g)
            for k, (red, _) in enumerate(_eliminate(rows), 1):
                if red.get(k, 0) <= 0:
                    raise ValueError("gram block must be positive definite")
        object.__setattr__(self, "gram", g)
        self._hashed()

    @property
    def block_size(self) -> int:
        return len(self.gram)

    def __call__(self, a: LinearForm, b: LinearForm) -> Q:
        return inner(self, a, b)

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


class Subspace(_Value, fields=("basis",)):
    """A finite-dimensional subspace of linear forms, held as a reduced
    row-echelon basis over the ascending variable support.  Canonical: two
    constructions of the same subspace compare equal.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: Sequence[LinearForm]):
        object.__setattr__(self, "basis", tuple(basis))
        self._hashed()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(f) for f in self.basis)

    def contains(self, form: LinearForm) -> bool:
        *_, (red, _) = _eliminate(f._integer_row() for f in (*self.basis, form))
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


def _eliminate(rows: Iterable[tuple[Mapping[int, int], int]]
               ) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """Incremental fraction-free Gaussian elimination over rational rows in
    list order (Bareiss, Math. Comp. 22, 1968), each given as (d * row, d):
    a form's `_integer_row()`, or `_int_row` of any other row.

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
    for idx, (ints, d) in enumerate(rows):
        red, combo = dict(ints), {idx: d}
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
    reds = (red for red, _ in _eliminate(f._integer_row() for f in forms) if red)
    rows = sorted(reds, key=min)
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
           variables: tuple[int, ...]) -> tuple[tuple[tuple, tuple, int], ...]:
    """The split of each z_v, v in `variables` (which hold every variable
    of the independent forms L_1..L_k), against span(L): one
    (t_row, z_row, den) per v, z_v = (sum_j t_row[j] L_j + z_row) / den,
    t_row a tuple of (j, integer) pairs and z_row of (variable, integer)
    pairs, a form q-orthogonal to every L_j.  With the columns
    c_w = (q(L_l, z_w))_l and the rows G_j = (q(L_l, L_j))_l =
    sum_w L_j[w] c_w of the Gram matrix, which span Q^k, the relation
    sum_j x_j G_j + den c_v = 0 that c_v gets after them says that
    den z_v + sum_j x_j L_j is q-orthogonal to every L_l.  Memoised per
    (q, forms, variables), and immutable.
    """
    # The forms enter as their integer rows d_j L_j, and q scaled by the
    # common denominator g of its Gram block: each scales the columns and
    # the Gram rows alike, and keeps them integral.
    g, block = lcm(*(x.denominator for row in q.gram for x in row)), q.block_size
    gram = [[int(x * g) for x in row] for row in q.gram]
    k, rows = len(forms), [f._integer_row() for f in forms]
    columns = {w: {j: sum(x * gram[i - 1][w - 1] for i, x in row.items() if i <= block)
                   if w <= block else g * row.get(w, 0) for j, (row, _) in enumerate(rows)}
               for w in variables}
    grams = ({c: sum(x * columns[w][c] for w, x in row.items()) for c in range(k)}
             for row, _ in rows)
    inputs = itertools.chain(grams, (columns[v] for v in variables))
    relations = itertools.islice(_eliminate(map(_int_row, inputs)), k, None)
    frame = []
    for p, (_, combo) in enumerate(relations):
        den = combo[k + p]
        z = {variables[p]: den}
        for j in range(k):
            if j in combo:
                _axpy(z, combo[j], rows[j][0])
        frame.append((tuple((j, -combo[j] * rows[j][1]) for j in range(k) if j in combo),
                      tuple(sorted(z.items())), den))
    return tuple(frame)


def orth_decompose(q: InnerProduct, f: LinearForm, u: Subspace) -> tuple[LinearForm, LinearForm]:
    """Split f = a + b with a in u and b q-orthogonal to u (unique, exact):
    b sums the q-orthogonal parts of f's coordinates in the frame of u's
    basis."""
    variables = tuple(sorted(set(f.coeffs).union(*(b.coeffs for b in u.basis))))
    b = {}
    for v, (_, z_row, den) in zip(variables, _frame(q, u.basis, variables)):
        _axpy(b, f[v] / den, dict(z_row))
    b = LinearForm(b)
    return f - b, b


def find_circuit(forms: Sequence[LinearForm]) -> tuple[tuple[int, ...], tuple[Q, ...]] | None:
    """Find a minimal linearly dependent subset (a circuit) of the form list.

    Returns None when the forms are independent; otherwise (indices, coeffs)
    with sum(coeffs[i] * forms[indices[i]]) = 0 exactly, scaled so that the
    lexicographically-largest form in the circuit has coefficient -1.

    Scans prefixes in list order, so the result is deterministic; the circuit
    is the fundamental circuit of the first form that depends on its
    predecessors (minimality: dropping any member leaves an independent set).
    """
    for red, combo in _eliminate(f._integer_row() for f in forms):
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
    with open(path) as fh:
        data = _decode_json(fh.read(), f"{path}: inner-product")
    if not isinstance(data, dict) or "gram" not in data:
        raise LinpoleError(f'{path}: expected a JSON object with a "gram" key')
    gram = data["gram"]
    if not (isinstance(gram, list) and all(isinstance(row, list) for row in gram)
            and all(isinstance(x, str) or type(x) is int for row in gram for x in row)):
        raise LinpoleError(f'{path}: "gram" must be a list of rows of integers '
                           'or "p/q" strings')
    return InnerProduct(gram)
