"""Ordered fractions under a letter-to-linear-form assignment.

An L-map sends alphabet letters to linear forms; a fraction spec
f[s1,...,sk; u1,...,uk] denotes the ordered fraction

    1 / ((L_{u1}+...+L_{uk})^{s1} (L_{u2}+...+L_{uk})^{s2} ... L_{uk}^{sk}),

the i-th factor being the cumulative sum from letter i to the end.  The word
map Phi sends x0^{s1-1}x_{u1}...x0^{sk-1}x_{uk} to f[s;u], block by block, and
with this alignment it is an algebra homomorphism from the shuffle product to
the germ product (the aligned-from-the-front reading fails multiplicativity
already on 1/z1 * 1/z2^2).  On locality words Phi is injective, which is what
the Lyndon decomposition exploits.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import (LinpoleError, NotLocal, NotLocalSpec, WordEndsInX0,
                     ZeroCumulativeForm, _payload_shape, limit)
from .exactlin import DEFAULT_Q, LinearForm, _Frozen, _Value, _axpy, inner, zset, zvar
from .germs import RationalGerm

from .words import (Alphabet, Word, X0, _ZERO, _lyndon_solve, _shuffle_ints,
                    integer_alphabet, is_local_word, is_lyndon, local_word_pair,
                    shuffle, subset_alphabet, word_str)


class LMap(_Frozen):
    """Alphabet plus assignment letter -> linear form.

    When `check_locality_on` letters are supplied, the locality-map property
    is verified on them at construction: any two local letters among them
    are assigned forms orthogonal under DEFAULT_Q.  Spec locality itself is
    read off the letters alone.  An L-map is immutable: the built-in ones
    are shared by every spec that uses them.
    """

    __slots__ = ("alphabet", "assign", "name")

    def __init__(self, alphabet: Alphabet, assign: Callable[[object], LinearForm],
                 name: str, check_locality_on: Optional[Sequence] = None):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "name", name)
        if check_locality_on is not None:
            letters = list(check_locality_on)
            for i, u in enumerate(letters):
                for v in letters[i + 1:]:
                    if alphabet.local_letters(u, v) and inner(DEFAULT_Q, assign(u), assign(v)):
                        raise ValueError(
                            f"not a locality map: {u!r} local {v!r} but forms not orthogonal")

    def form(self, letter) -> LinearForm:
        try:
            f = self.assign(letter)
        except (TypeError, ValueError) as exc:
            raise LinpoleError(f"letter {word_str((letter,))} is outside the alphabet "
                               f"of L-map {self.name} ({exc})") from exc
        if not isinstance(f, LinearForm):
            raise TypeError("assignment must produce a LinearForm")
        return f

    def __repr__(self):
        return f"LMap({self.name})"


_CHEN = LMap(integer_alphabet(), zvar, "chen")
_WEAK_CHEN = LMap(integer_alphabet(), zvar, "weak-chen")
_SPEER = LMap(subset_alphabet(), zset, "speer")


def chen_lmap() -> LMap:
    """Integer letters u -> z_u with distinctness locality (one shared map)."""
    return _CHEN


def weak_chen_lmap() -> LMap:
    """Same assignment as the Chen map; specs may repeat letters (and are then
    outside the locality family, so only the plain homomorphism applies)."""
    return _WEAK_CHEN


def speer_lmap() -> LMap:
    """Finite-set letters I -> z_I with disjointness locality."""
    return _SPEER


def _canon_letter(letter):
    if isinstance(letter, (set, frozenset, tuple, list)) and not isinstance(letter, str):
        return frozenset(_integer(i, "set letter members") for i in letter)
    return letter


class FractionSpec(_Value, fields=("exponents", "letters", "lmap")):
    """Exponent vector + letter vector under an L-map.

    Two specs are equal when their vectors are and they hold the same L-map
    object, so no memo keyed on specs hands one L-map's result to another
    of the same name; the name only labels a map.  Two such maps still tie
    in sort_key, and no value depends on the order of a tie.
    """

    __slots__ = ("exponents", "letters", "lmap", "_entries", "_sort_key", "_word", "_local",
                 "_lyndon")

    def __init__(self, exponents: Iterable[int], letters: Iterable, lmap: LMap):
        exps = tuple(_integer(s, "exponents") for s in exponents)
        lets = tuple(_canon_letter(u) for u in letters)
        if len(exps) != len(lets):
            raise ValueError("exponent and letter vectors must have equal length")
        if any(s < 1 for s in exps):
            raise ValueError("exponents must be positive integers")
        limit("weight", sum(exps), "spec weight")  # it sizes the word: check it first
        self._fill(exps, lets, lmap)

    @classmethod
    def _trusted(cls, exps: tuple[int, ...], lets: tuple, lmap: LMap,
                 word: Optional[Word] = None) -> "FractionSpec":
        """Wrap canonical vectors (positive int exponents, canonical letters,
        equal lengths) and, when given, their word (a tuple) unchecked."""
        spec = object.__new__(cls)
        spec._fill(exps, lets, lmap)
        if word is not None:
            object.__setattr__(spec, "_word", word)
        return spec

    def _fill(self, exps: tuple[int, ...], lets: tuple, lmap: LMap):
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "letters", lets)
        object.__setattr__(self, "lmap", lmap)
        self._hashed()

    @property
    def depth(self) -> int:
        return len(self.exponents)

    @property
    def weight(self) -> int:
        return sum(self.exponents)

    def is_local(self) -> bool:
        if not hasattr(self, "_local"):
            object.__setattr__(self, "_local", is_local_word(self.letters, self.lmap.alphabet))
        return self._local

    def is_lyndon(self) -> bool:
        """A nonempty local spec whose word is Lyndon: a locality polynomial
        generator.  Kept on first use, as is_local is."""
        if not hasattr(self, "_lyndon"):
            object.__setattr__(self, "_lyndon", bool(self.exponents) and self.is_local()
                               and is_lyndon(self.word(), self.lmap.alphabet))
        return self._lyndon

    def word(self) -> Word:
        """Built on first use, unless the spec was made from it (spec_of_word)."""
        if not hasattr(self, "_word"):
            w: list = []
            for s, u in zip(self.exponents, self.letters):
                w.extend([X0] * (s - 1))
                w.append(u)
            object.__setattr__(self, "_word", tuple(w))
        return self._word

    def germ(self) -> RationalGerm:
        return RationalGerm(1, self.denominator_entries())

    def denominator_entries(self) -> tuple[tuple[LinearForm, int], ...]:
        """(cumulative form, exponent) pairs, computed on first use; equal
        vectors under one L-map share them (_cumulative_entries)."""
        if not hasattr(self, "_entries"):
            object.__setattr__(self, "_entries",
                               _cumulative_entries(self.exponents, self.letters, self.lmap))
        return self._entries

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point off the pole locus."""
        return self.germ().evaluate(point)

    def variables(self) -> tuple[int, ...]:
        vs: set[int] = set()
        for u in self.letters:
            vs.update(self.lmap.form(u).support())
        return tuple(sorted(vs))

    def sort_key(self):
        """L-map name, then word: specs of different L-maps never compare
        letters, which need not be comparable.  Two distinct L-maps sharing
        a name and a word tie, so sorting keeps such specs in input order;
        no value depends on that order.  Built on first use."""
        if not hasattr(self, "_sort_key"):
            object.__setattr__(self, "_sort_key",
                               (self.lmap.name, self.lmap.alphabet.word_key(self.word())))
        return self._sort_key

    def __repr__(self):
        def letter(u):
            if isinstance(u, frozenset):
                return "{" + ",".join(map(str, sorted(u))) + "}"
            return str(u)
        return (f"f[{','.join(map(str, self.exponents))};"
                f"{','.join(letter(u) for u in self.letters)}]")


@functools.lru_cache(maxsize=4096)
def _cumulative_entries(exps: tuple[int, ...], lets: tuple,
                        lmap: LMap) -> tuple[tuple[LinearForm, int], ...]:
    """The (cumulative form, exponent) pairs of f[exps; lets] under lmap,
    which keys the cache by identity."""
    dens = []
    acc: dict[int, Fraction] = {}
    for s, u in zip(reversed(exps), reversed(lets)):
        _axpy(acc, 1, lmap.form(u).coeffs)
        if not acc:
            raise ZeroCumulativeForm(f"cumulative form vanished at {word_str((u,))}")
        dens.append((LinearForm._trusted(dict(sorted(acc.items()))), s))
    return tuple(dens)


def phi(w: Word, lmap: LMap) -> RationalGerm:
    """The word-to-fraction map on W1 (words not ending in x0)."""
    spec = spec_of_word(w, lmap)
    return spec.germ()


def spec_of_word(w: Word, lmap: LMap) -> FractionSpec:
    """The spec of a word not ending in x0; int and frozenset letters are
    taken as canonical, any other letter is canonicalised as by FractionSpec,
    and a word longer than the weight limit is refused as FractionSpec
    refuses its weight.  The spec keeps the word when every letter is
    canonical."""
    limit("weight", len(w), "spec weight")
    if not w:
        return FractionSpec._trusted((), (), lmap, ())
    if w[-1] is X0:
        raise WordEndsInX0(f"{word_str(w)} ends in x0")
    exps: list[int] = []
    letters: list = []
    canonical = True
    run = 0
    for a in w:
        if a is X0:
            run += 1
        else:
            exps.append(run + 1)
            u = a if type(a) is int or type(a) is frozenset else _canon_letter(a)
            canonical = canonical and u is a
            letters.append(u)
            run = 0
    return FractionSpec._trusted(tuple(exps), tuple(letters), lmap,
                                 tuple(w) if canonical else None)


@functools.lru_cache(maxsize=4096)
def _word_spec(w: Word, lmap: LMap) -> FractionSpec:
    """spec_of_word for internal callers, whose words are canonical (and so
    hashable): equal words under one L-map (by identity) share one spec."""
    return spec_of_word(w, lmap)


def word_of_fraction(spec: FractionSpec) -> Word:
    """Inverse of phi on the locality family; a letter outside the alphabet raises."""
    for u in spec.letters:
        spec.lmap.form(u)
    if not spec.is_local():
        raise NotLocalSpec(f"{spec!r} has non-local letters")
    return spec.word()


Combination = list[tuple[FractionSpec, Fraction]]


def expand_product(a: FractionSpec, b: FractionSpec) -> Combination:
    """Product of two ordered fractions whose letters are pairwise local, as
    a combination of ordered fractions: shuffle the words and map back
    through phi."""
    if a.lmap is not b.lmap:
        raise ValueError("specs use different L-maps")
    for s in (a, b):
        s.denominator_entries()  # a letter outside the alphabet raises here
    if not local_word_pair(a.letters, b.letters, a.lmap.alphabet):
        raise NotLocal(f"{a!r} and {b!r} share non-local letters")
    limit("weight", a.weight + b.weight, "spec weight")  # every word of the shuffle has it
    return [(_word_spec(w, a.lmap), c) for w, c in shuffle(a.word(), b.word()).items()]


SpecMonomial = tuple  # tuple of FractionSpec, canonically sorted


def spec_monomial(specs: Iterable[FractionSpec]) -> SpecMonomial:
    """The canonical (sorted) key of the commutative product of the specs."""
    return tuple(sorted(specs, key=FractionSpec.sort_key))


def monomial_mul(m1: SpecMonomial, m2: SpecMonomial):
    """The product of two spec monomials, for LinComb.product."""
    return ((spec_monomial(m1 + m2), 1),)


@functools.lru_cache(maxsize=4096)
def _lyndon_spec_monomial(mono: tuple[Word, ...], lmap: LMap) -> SpecMonomial:
    """The spec monomial of a monomial in Lyndon words under lmap."""
    return spec_monomial(_word_spec(v, lmap) for v in mono)


def lyndon_decompose(combo: Combination) -> dict[SpecMonomial, Fraction]:
    """Rewrite a combination of locality fractions as a commutative polynomial
    in the Lyndon-word fractions (the locality polynomial generators).

    The words of the combination are summed per L-map first, so they cancel
    before any rewriting, and each L-map's words are then eliminated top-down
    in one pass under the ordering invariant of `words.lyndon_rewrite`.
    """
    empty = _ZERO
    by_lmap: dict[LMap, dict] = {}
    for spec, coeff in combo:
        if not spec.is_local():
            raise NotLocalSpec(f"{spec!r} has non-local letters")
        w = spec.word()
        if not w:
            empty += coeff
            continue
        words = by_lmap.setdefault(spec.lmap, {})
        words[w] = words.get(w, _ZERO) + coeff
    out: dict[SpecMonomial, Fraction] = {(): empty} if empty else {}
    # every key below is new: _lyndon_solve emits nonzero coefficients, phi is
    # injective on words not ending in x0, and specs of distinct L-maps differ
    for lmap, words in by_lmap.items():
        for mono, c in _lyndon_solve(words, lmap.alphabet).items():
            out[_lyndon_spec_monomial(mono, lmap)] = c
    return out


class ForestNode(_Frozen):
    """Node of a nested-set forest: an index set, an exponent, children with
    pairwise-disjoint subsets of this set.  Its height, the most nodes on a
    path down from it, is within the forest depth limit."""

    __slots__ = ("index_set", "exponent", "children", "height")

    def __init__(self, index_set: Iterable[int], children: Sequence["ForestNode"] = (),
                 exponent: int = 1):
        s = frozenset(_integer(i) for i in index_set)
        if not s:
            raise ValueError("node index set must be nonempty")
        if _integer(exponent) < 1:
            raise ValueError("node exponent must be positive")
        kids = tuple(children)
        for k in kids:
            if not k.index_set <= s:
                raise ValueError("child set must be contained in the parent set")
        _check_disjoint([k.index_set for k in kids])
        height = 1 + max((k.height for k in kids), default=0)
        limit("forest depth", height, "forest depth")
        object.__setattr__(self, "index_set", s)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "height", height)

    def nodes(self):
        yield self
        for k in self.children:
            yield from k.nodes()

    def __repr__(self):
        inner_part = f", children={list(self.children)!r}" if self.children else ""
        exp = f", exp={self.exponent}" if self.exponent != 1 else ""
        return f"Node({set(self.index_set)}{exp}{inner_part})"


def _integer(x, what: str = "forest set entries and exponents") -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be integers, not {x!r}")
    return x


def _check_disjoint(sets: Sequence[frozenset]):
    seen: set[int] = set()
    for s in sets:
        if seen & s:
            raise ValueError("sibling sets must be pairwise disjoint")
        seen |= s


class Forest(_Frozen):
    """A tuple of root nodes with pairwise-disjoint index sets.  The weight,
    the sum of all node exponents, is that of every spec it flattens to, so
    one past the weight limit raises BudgetExceeded before any word is built."""

    __slots__ = ("roots",)

    def __init__(self, roots: Sequence[ForestNode]):
        roots = tuple(roots)
        _check_disjoint([r.index_set for r in roots])
        object.__setattr__(self, "roots", roots)
        limit("weight", sum(n.exponent for n in self.nodes()), "forest weight")

    def nodes(self):
        for r in self.roots:
            yield from r.nodes()

    @staticmethod
    def from_json(data) -> "Forest":
        # the reader descends before any node is built, so it stops at the
        # depth bound itself: from Python 3.12 the JSON decoder accepts
        # documents nested far deeper than Python's recursion limit
        def node(d, depth: int) -> ForestNode:
            limit("forest depth", depth, "forest depth")
            return ForestNode(d["set"], [node(c, depth + 1) for c in d.get("children", [])],
                              d.get("exp", 1))
        with _payload_shape("forest"):
            return Forest([node(d, 1) for d in data["nodes"]])

    def __repr__(self):
        return f"Forest({list(self.roots)!r})"


def forest_fraction(f: Forest) -> RationalGerm:
    """Product over all nodes of 1/z_{I(node)}^{exp}."""
    dens = [(zset(n.index_set), n.exponent) for n in f.nodes()]
    return RationalGerm(1, dens)


def _tree_words(node: ForestNode) -> dict[Word, int]:
    out: dict[Word, int] = {}
    for w, c in _forest_words(node.children).items():
        fresh = node.index_set.difference(*(a for a in w if a is not X0))
        # the root factor is the largest cumulative sum, i.e. the first block;
        # a root that adds no new indices raises that block's exponent.
        # Distinct words keep distinct images, so no two entries collide.
        if fresh:
            out[(X0,) * (node.exponent - 1) + (fresh,) + w] = c
        else:
            out[(X0,) * node.exponent + w] = c
    return out


def _forest_words(nodes: Sequence[ForestNode]) -> dict[Word, int]:
    return _shuffle_ints(_tree_words(n) for n in nodes)


def flatten_forest(f: Forest) -> Combination:
    """Write the forest fraction as a rational combination of Speer
    fractions: flatten subtrees to ladder words, shuffle-merge the disjoint
    siblings, then fold in each root factor."""
    lmap = speer_lmap()
    return [(spec_of_word(w, lmap), Fraction(c))
            for w, c in _forest_words(f.roots).items()]
