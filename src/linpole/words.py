"""Words over an ordered locality alphabet, the shuffle product, and the
(locality) Chen-Fox-Lyndon / Radford machinery.

Letters are opaque payloads (integers, or frozensets of integers for the
set-indexed alphabet) plus the distinguished smallest letter x0.  Words are
plain tuples of letters; all ordering questions go through an Alphabet.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import LIMITS, EmptyWord, NotLocal, limit
from .exactlin import _Frozen, _as_fraction, _axpy


class _X0:
    __slots__ = ()

    def __repr__(self):
        return "x0"

    def __reduce__(self):
        return (_x0_instance, ())


X0 = _X0()


def _x0_instance():
    return X0


Word = tuple  # tuple of letters (payloads or X0)
EMPTY_WORD: Word = ()

_ZERO, _ONE = Fraction(0), Fraction(1)


class Alphabet(_Frozen):
    """Well-ordered letter set U with an irreflexive symmetric locality
    relation, augmented by x0 (smaller than, and local to, everything)."""

    __slots__ = ("_key", "_local", "name")

    def __init__(self, *, key: Callable, local: Callable, name: str):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_local", local)
        object.__setattr__(self, "name", name)

    def letter_key(self, letter):
        if letter is X0:
            return (0,)
        return (1, self._key(letter))

    def word_key(self, w: Word):
        return tuple(self.letter_key(a) for a in w)

    def local_letters(self, a, b) -> bool:
        if a is X0 or b is X0:
            return True
        if a == b:
            return False
        return bool(self._local(a, b))

    def __repr__(self):
        return f"Alphabet({self.name})"


def _subset_key(s: frozenset) -> tuple:
    return tuple(sorted(s, reverse=True))


def _disjoint(a: frozenset, b: frozenset) -> bool:
    return not (a & b)


# one alphabet per letter kind, so caches keyed on an alphabet are shared
_INTEGERS = Alphabet(key=operator.index, local=operator.ne, name="integers")
_SUBSETS = Alphabet(key=_subset_key, local=_disjoint, name="subsets")


def integer_alphabet() -> Alphabet:
    """Positive-integer letters, natural order, locality = distinctness."""
    return _INTEGERS


def subset_alphabet() -> Alphabet:
    """Nonempty finite integer sets; order compares the elements sorted
    descending then the cardinality; locality = disjointness."""
    return _SUBSETS


class LinComb:
    """Finitely supported rational combination of hashable keys: words,
    commutative monomials in Lyndon words, or monomials in fraction specs.

    `coeffs` maps each key to its nonzero Fraction coefficient, in the order
    the keys first appeared.  `add` accumulates in place; `product` is the
    bilinear extension of a product of keys, whose multiplicities may be
    ints.  Shuffle multiplicities stay ints inside this module and become
    Fractions only as coefficients of a LinComb.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict = {}
        for key, c in items:
            c = _as_fraction(c)
            if c:
                acc[key] = acc.get(key, _ZERO) + c
        self.coeffs = {key: c for key, c in acc.items() if c}

    @classmethod
    def _trusted(cls, coeffs: dict) -> "LinComb":
        """Wrap, without copying, a dict whose coefficients are nonzero Fractions."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        return self.coeffs.items()

    def add(self, other, k=1) -> None:
        """self += k * other, in place; `other` is a LinComb or a
        {key: coefficient} dict."""
        _axpy(self.coeffs, _as_fraction(k), other)

    def __add__(self, other: "LinComb") -> "LinComb":
        out = LinComb(self.coeffs)
        out.add(other)
        return out

    def product(self, other, mul: Callable) -> "LinComb":
        """Bilinear extension of `mul(key1, key2)`, which yields (key,
        multiplicity) pairs; `other` is a LinComb or a {key: coefficient} mapping."""
        acc: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.items():
                c12 = c1 * c2
                for key, m in mul(k1, k2):
                    acc[key] = acc.get(key, _ZERO) + c12 * m
        return LinComb._trusted({key: c for key, c in acc.items() if c})

    def shuffle_with(self, other: "LinComb") -> "LinComb":
        return self.product(other, lambda w, v: _shuffle_counts(w, v).items())

    def expand(self) -> "LinComb":
        """Substitute each Lyndon indeterminate by its word and multiply by
        shuffle: a combination of Lyndon monomials becomes one of words.
        Each monomial expands in integer multiplicities and is scaled by
        its coefficient once."""
        out: dict = {}
        for mono, c in self.coeffs.items():
            _axpy(out, c, _shuffle_ints({w: 1} for w in mono))
        return LinComb(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{_key_str(key)}" for key, c in self.coeffs.items())


# Not exported: bench/tracing.py wraps LinComb.__add__ under this name.
LyndonPolynomial = LinComb


def _key_str(key) -> str:
    if all(a is X0 or isinstance(a, (int, frozenset)) for a in key):
        return word_str(key)
    return "*".join(f"[{word_str(f)}]" if isinstance(f, tuple) else repr(f) for f in key)


def _letter_str(a) -> str:
    if a is X0:
        return "x0"
    if isinstance(a, frozenset):
        return "x{" + ",".join(map(str, sorted(a))) + "}"
    return f"x{a}"


def word_str(w: Word) -> str:
    return "".join(map(_letter_str, w)) or "1"


def _shuffle_counts(w: Word, v: Word) -> dict[Word, int]:
    """All interleavings of the two words, with integer multiplicity, by a
    table filled from the last row up, two rows at a time: cell (i, j) holds
    those of w[i:] and v[j:], w[i] before those of (i + 1, j), then v[j]
    before those of (i, j + 1) (Reutenauer, Free Lie Algebras, 1993, ch. 1)."""
    n = len(v)
    below = [{v[j:]: 1} for j in range(n + 1)]
    for i in range(len(w) - 1, -1, -1):
        a, row = (w[i],), [None] * n + [{w[i:]: 1}]
        for j in range(n - 1, -1, -1):
            acc = {a + u: c for u, c in below[j].items()}
            b = (v[j],)
            for u, c in row[j + 1].items():
                acc[b + u] = acc.get(b + u, 0) + c
            row[j] = acc
        below = row
    return below[0]


def _shuffle_ints(combos: Iterable[dict[Word, int]]) -> dict[Word, int]:
    """The shuffle product of {word: positive int} combinations, extended
    multilinearly.  Multiplicities only add up (Radford: they are
    nonnegative integers), so no entry is zero."""
    acc = {EMPTY_WORD: 1}
    for b in combos:
        nxt: dict[Word, int] = {}
        for u, i in acc.items():
            for v, j in b.items():
                ij = i * j
                for w, m in _shuffle_counts(u, v).items():
                    nxt[w] = nxt.get(w, 0) + ij * m
        acc = nxt
    return acc


def shuffle(w: Word, v: Word) -> LinComb:
    """All interleavings of the two words, with multiplicity."""
    return LinComb._trusted({u: Fraction(c) for u, c in _shuffle_counts(w, v).items()})


def is_lyndon(w: Word, alphabet: Alphabet) -> bool:
    """True iff the word is strictly smaller than every proper rotation."""
    if not w:
        raise EmptyWord("the empty word has no Lyndon status")
    k = alphabet.word_key(w)
    return all(k < k[i:] + k[:i] for i in range(1, len(k)))


def cfl(w: Word, alphabet: Alphabet) -> list[tuple[Word, int]]:
    """Chen-Fox-Lyndon factorisation into strictly decreasing Lyndon factors
    with multiplicities, by Duval's algorithm."""
    if not w:
        raise EmptyWord("cannot factorise the empty word")
    key = alphabet.word_key(w)
    n = len(w)
    factors: list[Word] = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and key[i] <= key[j]:
            i = k if key[i] < key[j] else i + 1
            j += 1
        while k <= i:
            factors.append(w[k:k + j - i])
            k += j - i
    grouped: list[tuple[Word, int]] = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1] = (f, grouped[-1][1] + 1)
        else:
            grouped.append((f, 1))
    return grouped


@functools.lru_cache(maxsize=4096)
def _lyndon_step(w: Word, alphabet: Alphabet) -> tuple[tuple, int, tuple]:
    """The elimination step of a word: the monomial of its CFL factors, the
    product of their multiplicities' factorials (the coefficient of w in the
    monomial's expansion), and every other word of that expansion with its
    integer multiplicity.  The alphabet keys the cache by identity."""
    factors = cfl(w, alphabet)
    # the factors are non-increasing, so this monomial is already sorted
    mono = tuple(f for f, m in factors for _ in range(m))
    fact = math.prod(math.factorial(m) for _, m in factors)
    if len(set(w)) == 1:  # n copies of one letter shuffle only to w, n! times
        return mono, fact, ()
    rest = tuple((v, k) for v, k in _shuffle_ints({f: 1} for f in mono).items() if v != w)
    return mono, fact, rest


def _lyndon_solve(combo: dict, alphabet: Alphabet) -> dict:
    """The Lyndon polynomial whose expansion is `combo`, a {word: Fraction}
    combination of nonempty words.

    Pops the largest word left in the residual, which fixes the coefficient
    of its own monomial (see `lyndon_rewrite`), and subtracts that monomial's
    expansion, which only touches smaller anagrams: each word is popped at
    most once, and `_lyndon_step` gives its step.  The residual is kept as integer numerators over one
    common denominator; where a lead c / fact does not divide, the whole
    residual is rescaled by fact / gcd(c, fact), so each update is an int
    times an int and each emitted coefficient is one Fraction.
    """
    # Rank the letters 1..n and read a word as a base-(n+1) integer: no digit
    # is 0, so distinct words get distinct codes, ordered lexicographically
    # within an anagram class, and the heap never compares two words.
    letters = sorted({a for w in combo for a in w}, key=alphabet.letter_key)
    rank = {a: i for i, a in enumerate(letters, 1)}
    base = len(letters) + 1

    def code(w: Word) -> int:
        n = 0
        for a in w:
            n = n * base + rank[a]
        return n

    den = math.lcm(*(c.denominator for c in combo.values()))
    residual = {w: c.numerator * (den // c.denominator) for w, c in combo.items()}
    heap = [(-code(w), w) for w in residual]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = residual.pop(w)
        if not c:
            continue
        mono, fact, rest = _lyndon_step(w, alphabet)
        if c % fact:
            s = fact // math.gcd(c, fact)
            den *= s
            c *= s
            for v in residual:
                residual[v] *= s
        lead = c // fact
        out[mono] = Fraction(lead, den)
        for v, k in rest:
            if v not in residual:
                heapq.heappush(heap, (-code(v), v))
            residual[v] = residual.get(v, 0) - lead * k
    return out


def lyndon_rewrite(w: Word, alphabet: Alphabet) -> LinComb:
    """Express a word in the polynomial basis of Lyndon words.

    Ordering invariant: the shuffle of the CFL factors of w = w1^{i1}...wk^{ik}
    is (i1!...ik!) w plus lexicographically smaller anagrams of w.  So the
    word-to-monomial matrix is unitriangular under lexicographic order, and
    one top-down elimination from the largest word inverts it.
    """
    if not w:
        raise EmptyWord("cannot rewrite the empty word")
    return LinComb(_lyndon_solve({w: _ONE}, alphabet))


def is_local_word(w: Word, alphabet: Alphabet) -> bool:
    """Letters pairwise local (x0 is local to everything)."""
    n = len(w)
    return all(alphabet.local_letters(w[i], w[j])
               for i in range(n) for j in range(i + 1, n))


def local_word_pair(w: Word, v: Word, alphabet: Alphabet) -> bool:
    """Pair locality: every letter of one word local to every letter of the other."""
    return all(alphabet.local_letters(a, b) for a in w for b in v)


def locality_cfl(w: Word, alphabet: Alphabet) -> tuple[list[Word], int]:
    """Factorise a local word as w1...wk x0^r with distinct, pairwise-local
    Lyndon factors above x0, strictly decreasing."""
    if not is_local_word(w, alphabet):
        raise NotLocal("word is not a locality word")
    if not w:
        return [], 0
    factors = cfl(w, alphabet)
    r = 0
    main: list[Word] = []
    for f, m in factors:
        if f == (X0,):
            r += m
        else:  # m is 1: a local word repeats no letter but x0
            main.append(f)
    return main, r


def locality_lyndon_generators(alphabet: Alphabet, max_length: int,
                               letters: Sequence) -> list[Word]:
    """All locality Lyndon words over x0 and `letters` not ending in x0, up
    to the length bound, sorted by (length, lex); a bound past the weight
    limit (a generator is the word of a spec) or more words than the
    generators limit raise BudgetExceeded.  A depth-first walk
    over the local prenecklaces (Fredricksen-Kessler-Maiorana): one of length
    n and period p extends by letters a >= w[n-p], keeping p when
    a == w[n-p], and is Lyndon when n == p.  Locality and the prenecklace
    property are prefix-closed, so every generator is reached.  Letters are
    walked as ranks, x0 being 0."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    limit("weight", max_length, "max length")
    pool = [X0] + sorted(set(letters) - {X0}, key=alphabet.letter_key)
    count = f"locality Lyndon words up to length {max_length}: at least"
    # x0^k u is a generator for each letter u above x0 and each k < max_length
    limit("generators", (len(pool) - 1) * max_length, count)
    cap = LIMITS["generators"]
    ranks = range(len(pool))
    out: list[tuple] = []
    word: list[int] = []
    # (length, last rank, period, ranks local to every letter before the last)
    stack = [(1, a, 1, tuple(ranks)) for a in reversed(ranks)]
    while stack:
        n, a, p, allowed = stack.pop()
        del word[n - 1:]
        word.append(a)
        if a:
            allowed = tuple(b for b in allowed if alphabet.local_letters(pool[a], pool[b]))
            if n == p:
                if len(out) == cap:
                    limit("generators", cap + 1, count)
                out.append(tuple(word))
        if n < max_length and len(allowed) > 1:  # x0 alone cannot end a generator
            floor = word[n - p]
            stack.extend((n + 1, b, p if b == floor else n + 1, allowed)
                         for b in reversed(allowed) if b >= floor)
    out.sort(key=lambda t: (len(t), t))
    return [tuple(pool[a] for a in t) for t in out]
