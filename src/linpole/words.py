"""Words over an ordered locality alphabet, the shuffle product, and the
(locality) Chen-Fox-Lyndon / Radford machinery.

Letters are opaque payloads (integers, or frozensets of integers for the
set-indexed alphabet) plus the distinguished smallest letter x0.  Words are
plain tuples of letters; all ordering questions go through an Alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import EmptyWord, NotLocal
from .exactlin import _as_fraction


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


class Alphabet:
    """Well-ordered letter set U with an irreflexive symmetric locality
    relation, augmented by x0 (smaller than, and local to, everything)."""

    def __init__(self, *, key: Callable = lambda u: u,
                 local: Callable = lambda u, v: u != v,
                 letters: Optional[Sequence] = None,
                 name: str = "integers"):
        self._key = key
        self._local = local
        self.letters = tuple(letters) if letters is not None else None
        self.name = name

    def letter_key(self, letter):
        if letter is X0:
            return (0,)
        return (1, self._key(letter))

    def word_key(self, w: Word):
        return tuple(self.letter_key(a) for a in w)

    def letter_lt(self, a, b) -> bool:
        return self.letter_key(a) < self.letter_key(b)

    def local_letters(self, a, b) -> bool:
        if a is X0 or b is X0:
            return True
        if a == b:
            return False
        return bool(self._local(a, b))

    def __repr__(self):
        return f"Alphabet({self.name})"


def integer_alphabet() -> Alphabet:
    """Positive-integer letters, natural order, locality = distinctness."""
    return Alphabet(key=lambda u: u, local=lambda u, v: u != v, name="integers")


def _subset_key(s: frozenset) -> tuple:
    return tuple(sorted(s, reverse=True))


def subset_alphabet() -> Alphabet:
    """Nonempty finite integer sets; order compares the elements sorted
    descending then the cardinality; locality = disjointness."""
    return Alphabet(key=_subset_key,
                    local=lambda a, b: not (a & b),
                    name="subsets")


class WordPolynomial:
    """Finitely supported rational combination of words."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[Word, Fraction] = {}
        for w, c in items:
            c = _as_fraction(c)
            if c:
                acc[w] = acc.get(w, Fraction(0)) + c
        self.coeffs = {w: c for w, c in acc.items() if c}

    def __eq__(self, other):
        return isinstance(other, WordPolynomial) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "WordPolynomial") -> "WordPolynomial":
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc.get(w, Fraction(0)) + c
        return WordPolynomial(acc)

    def scale(self, k) -> "WordPolynomial":
        k = _as_fraction(k)
        return WordPolynomial({w: k * c for w, c in self.coeffs.items()})

    def shuffle_with(self, other: "WordPolynomial") -> "WordPolynomial":
        acc: dict[Word, Fraction] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                for w, c in shuffle(w1, w2).coeffs.items():
                    acc[w] = acc.get(w, Fraction(0)) + c1 * c2 * c
        return WordPolynomial(acc)

    def items(self):
        return self.coeffs.items()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{''.join(map(_letter_str, w)) or '1'}"
                          for w, c in self.coeffs.items())


def _letter_str(a) -> str:
    if a is X0:
        return "x0"
    if isinstance(a, frozenset):
        return "x{" + ",".join(map(str, sorted(a))) + "}"
    return f"x{a}"


def word_str(w: Word) -> str:
    return "".join(map(_letter_str, w)) or "1"


def shuffle(w: Word, v: Word) -> WordPolynomial:
    """All interleavings of the two words, with multiplicity."""
    memo: dict[tuple[Word, Word], dict[Word, int]] = {}

    def rec(a: Word, b: Word) -> dict[Word, int]:
        if not a:
            return {b: 1}
        if not b:
            return {a: 1}
        key = (a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc: dict[Word, int] = {}
        for u, c in rec(a[1:], b).items():
            acc[(a[0],) + u] = acc.get((a[0],) + u, 0) + c
        for u, c in rec(a, b[1:]).items():
            acc[(b[0],) + u] = acc.get((b[0],) + u, 0) + c
        memo[key] = acc
        return acc

    return WordPolynomial({w2: Fraction(c) for w2, c in rec(w, v).items()})


def shuffle_power(w: Word, k: int) -> WordPolynomial:
    out = WordPolynomial({EMPTY_WORD: 1})
    for _ in range(k):
        out = out.shuffle_with(WordPolynomial({w: 1}))
    return out


def is_lyndon(w: Word, alphabet: Alphabet) -> bool:
    """True iff the word is strictly smaller than every proper rotation."""
    if not w:
        raise EmptyWord("the empty word has no Lyndon status")
    k = alphabet.word_key(w)
    n = len(w)
    return all(k < alphabet.word_key(w[i:] + w[:i]) for i in range(1, n))


def cfl(w: Word, alphabet: Alphabet) -> list[tuple[Word, int]]:
    """Chen-Fox-Lyndon factorisation into strictly decreasing Lyndon factors
    with multiplicities, by Duval's algorithm."""
    if not w:
        raise EmptyWord("cannot factorise the empty word")
    key = alphabet.letter_key
    n = len(w)
    factors: list[Word] = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and key(w[i]) <= key(w[j]):
            i = k if key(w[i]) < key(w[j]) else i + 1
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


LyndonMonomial = tuple  # tuple of Lyndon words, sorted descending: commutative


class LyndonPolynomial:
    """Formal commutative polynomial whose indeterminates are Lyndon words."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[LyndonMonomial, Fraction] = {}
        for m, c in items:
            c = _as_fraction(c)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + c
        self.coeffs = {m: c for m, c in acc.items() if c}

    def __eq__(self, other):
        return isinstance(other, LyndonPolynomial) and self.coeffs == other.coeffs

    def __add__(self, other):
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return LyndonPolynomial(acc)

    def scale(self, k):
        k = _as_fraction(k)
        return LyndonPolynomial({m: k * c for m, c in self.coeffs.items()})

    def items(self):
        return self.coeffs.items()

    def expand(self) -> WordPolynomial:
        """Substitute each indeterminate by its word and multiply by shuffle."""
        out = WordPolynomial()
        for mono, c in self.coeffs.items():
            term = WordPolynomial({EMPTY_WORD: 1})
            for w in mono:
                term = term.shuffle_with(WordPolynomial({w: 1}))
            out = out + term.scale(c)
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*" + ("*".join(f"[{word_str(w)}]" for w in m) or "1")
            for m, c in self.coeffs.items())


def _sort_monomial(words: Iterable[Word], alphabet: Alphabet) -> LyndonMonomial:
    return tuple(sorted(words, key=alphabet.word_key, reverse=True))


def lyndon_rewrite(w: Word, alphabet: Alphabet) -> LyndonPolynomial:
    """Express a word in the polynomial basis of Lyndon words.

    Rewrites along the factorisation w = w1^{i1}...wk^{ik}: the shuffle of the
    factors equals (i1!...ik!) w plus words that are lexicographically smaller
    within the same anagram class, so the recursion terminates.
    """
    if not w:
        raise EmptyWord("cannot rewrite the empty word")
    memo: dict[Word, LyndonPolynomial] = {}

    def rec(word: Word) -> LyndonPolynomial:
        hit = memo.get(word)
        if hit is not None:
            return hit
        factors = cfl(word, alphabet)
        mono = _sort_monomial([f for f, m in factors for _ in range(m)], alphabet)
        fact = 1
        for _, m in factors:
            for i in range(2, m + 1):
                fact *= i
        lead = Fraction(1, fact)
        expansion = WordPolynomial({EMPTY_WORD: 1})
        for f, m in factors:
            expansion = expansion.shuffle_with(shuffle_power(f, m))
        result = LyndonPolynomial({mono: lead})
        for v, c in expansion.items():
            if v == word:
                continue
            result = result + rec(v).scale(-lead * c)
        memo[word] = result
        return result

    return rec(w)


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
        else:
            if m != 1:
                raise NotLocal("repeated non-x0 Lyndon factor in a local word")
            main.append(f)
    return main, r


def locality_lyndon_generators(alphabet: Alphabet, max_length: int,
                               letters: Optional[Sequence] = None) -> list[Word]:
    """All locality Lyndon words not ending in x0, up to the length bound,
    sorted by (length, lex)."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    base = letters if letters is not None else alphabet.letters
    if base is None:
        raise ValueError("alphabet has no finite letter list; pass letters=")
    pool = [X0] + sorted(base, key=alphabet.letter_key)
    out: list[Word] = []

    def extend(prefix: Word, length: int):
        if prefix and prefix[-1] is not X0:
            if is_lyndon(prefix, alphabet):
                out.append(prefix)
        if length == max_length:
            return
        for a in pool:
            if all(alphabet.local_letters(a, b) for b in prefix):
                extend(prefix + (a,), length + 1)

    extend(EMPTY_WORD, 0)
    out.sort(key=lambda w: (len(w), alphabet.word_key(w)))
    return out
