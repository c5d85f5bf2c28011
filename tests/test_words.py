import collections
import itertools
import math
import random
import sys
import time
import types
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from linpole import (BudgetExceeded, EmptyWord, FractionSpec, LinComb, NotLocal, X0,
                     cfl, chen_lmap, expand_product, integer_alphabet,
                     is_local_word, is_lyndon, local_word_pair, locality_cfl,
                     locality_lyndon_generators, lyndon_decompose,
                     lyndon_rewrite, shuffle, speer_lmap, subset_alphabet,
                     weak_chen_lmap, word_str)
from linpole.errors import LIMITS
from linpole.fracspec import spec_monomial, spec_of_word
from linpole.words import (Alphabet, Word, _lyndon_solve, _lyndon_step, _shuffle_counts,
                           _shuffle_ints)

from helpers import (brute_shuffle, fraction_shuffle, random_local_pair,
                     recursive_shuffle_counts)

_ONE = Fraction(1)

A = integer_alphabet()


def test_shuffle_examples():
    assert shuffle((1,), (2,)).coeffs == {(1, 2): 1, (2, 1): 1}
    w = (1, X0, 2)
    assert shuffle((), w).coeffs == {w: 1}
    assert shuffle(w, ()).coeffs == {w: 1}
    # derived by brute-force enumeration of the six interleavings
    expected = brute_shuffle((X0, 1), (X0, 2))
    assert shuffle((X0, 1), (X0, 2)).coeffs == expected
    assert expected[(X0, X0, 1, 2)] == 2


def test_shuffle_table_matches_the_recursion_in_order():
    """The table against the memoised recursion, words listed in the same
    order: seeded pairs of up to 8 letters, repeated letters and x0."""
    rng = random.Random(32)
    for _ in range(300):
        w, v = (tuple(rng.choice((X0, 1, 1, 2, 3)) for _ in range(rng.randint(0, 8)))
                for _ in range(2))
        assert list(_shuffle_counts(w, v).items()) == \
            list(recursive_shuffle_counts(w, v).items()), (w, v)


def test_shuffle_of_a_long_word_does_not_recurse():
    w = (X0, 1, 3) * 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = shuffle(w, (2,))
    finally:
        sys.setrecursionlimit(limit)
    assert len(got.coeffs) == 301
    assert got.coeffs == collections.Counter(w[:k] + (2,) + w[k:] for k in range(301))


letters = st.sampled_from([X0, 1, 2])
words = st.lists(letters, min_size=0, max_size=5).map(tuple)


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_shuffle_matches_bruteforce_and_counts(w, v):
    got = shuffle(w, v)
    assert got.coeffs == brute_shuffle(w, v)
    assert sum(got.coeffs.values()) == math.comb(len(w) + len(v), len(w))


@settings(max_examples=40, deadline=None)
@given(words, words, words)
def test_shuffle_commutative_associative(u, v, w):
    pu = LinComb({u: 1})
    pv = LinComb({v: 1})
    pw = LinComb({w: 1})
    assert shuffle(u, v).coeffs == shuffle(v, u).coeffs
    lhs = pu.shuffle_with(pv).shuffle_with(pw)
    rhs = pu.shuffle_with(pv.shuffle_with(pw))
    assert lhs == rhs


def test_lincomb_reads_any_mapping_as_keys_and_coefficients():
    """Any mapping, a read-only one say, gives its keys whole, as a dict
    does: a two-element key is not unpacked into key and coefficient, and a
    one-element key is accepted."""
    for coeffs in ({(1, 2): 1}, {("ab",): 1}, {(): Fraction(1, 2), (3,): -2}):
        assert LinComb(types.MappingProxyType(coeffs)) == LinComb(coeffs)
        assert LinComb(types.MappingProxyType(coeffs)).coeffs == {
            key: Fraction(c) for key, c in coeffs.items()}


def fraction_expand(mono):
    acc = {(): _ONE}
    for w in mono:
        acc = fraction_shuffle(acc, {w: _ONE})
    return acc


def random_lyndon_monomials(rng, letters, alphabet, count, max_total=7):
    """`count` random monomials in Lyndon words over `letters` whose word
    lengths add up to at most `max_total`."""
    lyndon = [w for w in all_words(letters, 4) if is_lyndon(w, alphabet)]
    out = []
    while len(out) < count:
        mono, total = [], 0
        for _ in range(rng.randint(1, 4)):
            w = rng.choice(lyndon)
            if total + len(w) <= max_total:
                mono.append(w)
                total += len(w)
        out.append(tuple(mono))
    return out


SETS = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
ALPHABETS = [(A, (X0, 1, 2, 3)), (subset_alphabet(), (X0, *SETS))]


def test_integer_expansion_matches_fraction_fold():
    rng = random.Random(17)
    for alphabet, letters in ALPHABETS:
        for mono in random_lyndon_monomials(rng, letters, alphabet, 40):
            got = _shuffle_ints({w: 1} for w in mono)
            assert got == fraction_expand(mono), mono
            assert all(type(m) is int for m in got.values())


def test_expand_and_shuffle_with_match_fraction_fold():
    rng = random.Random(18)
    for alphabet, letters in ALPHABETS:
        monos = random_lyndon_monomials(rng, letters, alphabet, 24, max_total=6)
        for _ in range(8):
            # repeated monomials and opposite signs make some words cancel
            combo = [(m, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                     for m in rng.sample(monos, 3)]
            combo.append((combo[0][0], -combo[0][1]))
            combo.append((combo[1][0], rng.choice([-1, 1]) * combo[1][1]))
            want = {}
            for m, c in combo:
                for w, k in fraction_expand(m).items():
                    want[w] = want.get(w, Fraction(0)) + c * k
            want = {w: c for w, c in want.items() if c}
            assert LinComb(combo).expand().coeffs == want
        for _ in range(12):
            a, b = ({w: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for w in rng.sample([w for m in monos for w in m], 3)}
                    for _ in range(2))
            got = LinComb(a).shuffle_with(LinComb(b))
            assert got.coeffs == fraction_shuffle(LinComb(a).coeffs, LinComb(b).coeffs)


def test_is_lyndon_examples():
    assert is_lyndon((X0, 1), A)
    assert not is_lyndon((1, X0), A)
    assert is_lyndon((X0, 1, 1), A)
    with pytest.raises(EmptyWord):
        is_lyndon((), A)


def all_words(alphabet_letters, max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet_letters, repeat=n)


def brute_cfl(w, alphabet):
    """Oracle: all factorisations into non-increasing Lyndon factors."""
    results = []

    def rec(rest, acc):
        if not rest:
            results.append(list(acc))
            return
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if is_lyndon(head, alphabet):
                if not acc or alphabet.word_key(acc[-1]) >= alphabet.word_key(head):
                    acc.append(head)
                    rec(rest[cut:], acc)
                    acc.pop()

    rec(w, [])
    return results


def test_cfl_examples():
    assert cfl((1, X0, 1), A) == [((1,), 1), ((X0, 1), 1)]
    assert cfl((X0, X0), A) == [((X0,), 2)]
    assert cfl((X0, 1), A) == [((X0, 1), 1)]
    with pytest.raises(EmptyWord):
        cfl((), A)


def test_cfl_unique_against_bruteforce():
    # words of length <= 5 over three letters here; the acceptance suite
    # re-runs this at length 6
    for w in all_words((X0, 1, 2), 5):
        facts = brute_cfl(w, A)
        assert len(facts) == 1
        flat = [f for f in facts[0]]
        grouped = []
        for f in flat:
            if grouped and grouped[-1][0] == f:
                grouped[-1] = (f, grouped[-1][1] + 1)
            else:
                grouped.append((f, 1))
        assert cfl(w, A) == grouped


def general_lyndon_step(w, alphabet):
    """_lyndon_step with every word's shuffle expanded, one-letter words too."""
    factors = cfl(w, alphabet)
    mono = tuple(f for f, m in factors for _ in range(m))
    fact = math.prod(math.factorial(m) for _, m in factors)
    rest = tuple((v, k) for v, k in _shuffle_ints({f: 1} for f in mono).items() if v != w)
    return mono, fact, rest


def test_one_letter_words_skip_the_shuffle():
    """a^n is n! times the n-th power of the Lyndon word a, with no other
    word in its step: as the general route finds for n <= 12, and x2 repeated
    600 times is rewritten at once."""
    S = subset_alphabet()
    for alphabet, a in ((A, 2), (A, X0), (S, frozenset({1, 3}))):
        for n in range(1, 13):
            w = (a,) * n
            assert _lyndon_step(w, alphabet) == general_lyndon_step(w, alphabet)
            want = LinComb({((a,),) * n: Fraction(1, math.factorial(n))})
            assert lyndon_rewrite(w, alphabet) == want
    for w in [(2, 2, 1), (1, 2, 2), (2, 2, X0, 2), (X0, X0, 1)]:  # not one letter
        assert _lyndon_step(w, A) == general_lyndon_step(w, A)
    start = time.perf_counter()
    got = lyndon_rewrite((2,) * 600, A)
    assert time.perf_counter() - start < 0.5
    assert got == LinComb({((2,),) * 600: Fraction(1, math.factorial(600))})


def test_lyndon_rewrite_examples():
    lp = lyndon_rewrite((X0, 1), A)
    assert lp.coeffs == {((X0, 1),): Fraction(1)}
    lp = lyndon_rewrite((1, X0), A)
    assert lp.coeffs == {((1,), (X0,)): Fraction(1), ((X0, 1),): Fraction(-1)}
    lp = lyndon_rewrite((X0, X0), A)
    assert lp.coeffs == {((X0,), (X0,)): Fraction(1, 2)}


# a word whose rewrite has 209 monomials: the slow case of the recursive rewriter
FOUND_WORD = (X0, 4, 5, X0, 1, 2, X0, 3)


def test_lyndon_rewrite_roundtrip():
    long_words = [FOUND_WORD, (X0, 4, X0, 1, X0, 2, X0, 3, 5)]
    for w in itertools.chain(all_words((X0, 1), 5), long_words):
        lp = lyndon_rewrite(w, A)
        assert lp.expand() == LinComb({w: 1}), word_str(w)


def recursive_rewrite(alphabet: Alphabet) -> Callable[[Word], LinComb]:
    """lyndon_rewrite over one alphabet, with one memo for every word it is
    given: the rewrite of a word recurses into its anagrams, and the words of
    a shuffle product are anagrams of each other.  The memoised results are
    shared, so callers must not change them in place."""
    memo: dict[Word, LinComb] = {}

    def rec(word: Word) -> LinComb:
        hit = memo.get(word)
        if hit is not None:
            return hit
        factors = cfl(word, alphabet)
        # the factors are non-increasing, so this monomial is already sorted
        mono = tuple(f for f, m in factors for _ in range(m))
        lead = Fraction(1, math.prod(math.factorial(m) for _, m in factors))
        result = LinComb._trusted({mono: lead})
        for v, c in LinComb._trusted({mono: _ONE}).expand().items():
            if v != word:
                result.add(rec(v), -lead * c)
        memo[word] = result
        return result

    return rec


def recursive_decompose(combo):
    """lyndon_decompose by rewriting each word of the combination on its own
    with recursive_rewrite and summing the rewrites."""
    out = LinComb()
    rewriters = {}
    for spec, coeff in combo:
        w = spec.word()
        if not w:
            out.add({(): coeff})
            continue
        alphabet = spec.lmap.alphabet
        if alphabet not in rewriters:
            rewriters[alphabet] = recursive_rewrite(alphabet)
        for mono, c in rewriters[alphabet](w).items():
            out.add({spec_monomial(spec_of_word(v, spec.lmap) for v in mono): coeff * c})
    return out.coeffs


def test_lyndon_rewrite_matches_recursive_rewrite():
    ref = recursive_rewrite(A)
    for w in all_words((X0, 1, 2), 6):
        assert lyndon_rewrite(w, A) == ref(w), word_str(w)
    S = subset_alphabet()
    ref = recursive_rewrite(S)
    sets = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    for w in all_words([X0] + sets, 4):
        assert lyndon_rewrite(w, S) == ref(w), word_str(w)


def test_lyndon_decompose_matches_recursive_rewrite():
    rng = random.Random(23)
    lmaps = [chen_lmap(), speer_lmap()]
    pairs = [random_local_pair(rng, lmaps[i % 2]) for i in range(60)]
    for a, b in pairs:
        combo = expand_product(a, b)
        assert lyndon_decompose(combo) == recursive_decompose(combo), (a, b)
    # sums across pairs and L-maps whose coefficients partly cancel
    for _ in range(12):
        combo = []
        for a, b in rng.sample(pairs, 3):
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            combo += [(s, k * c) for s, c in expand_product(a, b)]
            combo += [(s, -k * c) for s, c in expand_product(b, a)[:rng.randint(0, 3)]]
        combo.append((FractionSpec((), (), lmaps[0]), Fraction(2)))
        assert lyndon_decompose(combo) == recursive_decompose(combo)
    # the shuffle is commutative, so this combination sums to zero
    a, b = pairs[1]
    zero = expand_product(a, b) + [(s, -c) for s, c in expand_product(b, a)]
    assert lyndon_decompose(zero) == recursive_decompose(zero) == {}


def test_each_word_factorised_once(monkeypatch):
    seen = []

    def counting_cfl(w, alphabet):
        seen.append(w)
        return cfl(w, alphabet)

    monkeypatch.setattr("linpole.words.cfl", counting_cfl)
    chen = chen_lmap()
    combo = expand_product(FractionSpec((2, 1, 2), (1, 2, 3), chen),
                           FractionSpec((2, 1), (4, 5), chen))
    for run in (lambda: lyndon_decompose(combo), lambda: lyndon_rewrite(FOUND_WORD, A)):
        seen.clear()
        _lyndon_step.cache_clear()
        run()
        assert seen and len(seen) == len(set(seen))


def test_one_alphabet_per_letter_kind_shares_the_steps():
    assert integer_alphabet() is integer_alphabet() is chen_lmap().alphabet \
        is weak_chen_lmap().alphabet
    assert subset_alphabet() is subset_alphabet() is speer_lmap().alphabet
    _lyndon_step.cache_clear()
    lyndon_rewrite((2, 1, 2, 1, 1), integer_alphabet())
    cold = _lyndon_step.cache_info()
    lyndon_rewrite((2, 1, 2, 1, 1), integer_alphabet())
    warm = _lyndon_step.cache_info()
    assert cold.misses and warm.misses == cold.misses
    assert warm.hits - cold.hits == cold.misses + cold.hits


# (x2x1)^3 = (x2)(x1x2)^2(x1), x2x1x1 = (x2)(x1)^2 and (x0x0x1)^2 repeat a
# factor, so a lead c / 2 with c odd makes the residual rescale; x1x1x2 is
# itself Lyndon
REPEATED_FACTOR_WORDS = [(2, 1, 2, 1, 2, 1), (1, 1, 2), (2, 1, 1), (X0, X0, 1, X0, X0, 1)]


def test_lyndon_solve_matches_fraction_reference():
    """The integer elimination, cold and with its steps cached, against
    recursive_rewrite, which rewrites each word on its own in Fractions."""
    assert [_lyndon_step(w, A)[1] for w in REPEATED_FACTOR_WORDS] == [2, 1, 2, 2]
    rng = random.Random(31)
    S = subset_alphabet()
    sets = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    cases = [(A, {w: _ONE}) for w in REPEATED_FACTOR_WORDS]
    for alphabet, letters in ((A, (X0, 1, 2, 3)), (S, [X0] + sets)) * 15:
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 5))]
        if alphabet is A:
            words += rng.sample(REPEATED_FACTOR_WORDS, 2)
        cases.append((alphabet, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                                 for w in words}))
    refs = {A: recursive_rewrite(A), S: recursive_rewrite(S)}
    for alphabet, combo in cases:
        want = LinComb()
        for w, c in combo.items():
            want.add(refs[alphabet](w), c)
        _lyndon_step.cache_clear()
        assert _lyndon_solve(combo, alphabet) == want.coeffs, combo
        assert _lyndon_solve(combo, alphabet) == want.coeffs, combo


def brute_generators(alphabet, max_length, letters):
    """Every word over x0 and the letters up to the length, kept when it is
    local, Lyndon and does not end in x0."""
    pool = [X0] + list(set(letters) - {X0})
    words = [w for w in all_words(pool, max_length)
             if w[-1] is not X0 and is_local_word(w, alphabet) and is_lyndon(w, alphabet)]
    return sorted(words, key=lambda w: (len(w), alphabet.word_key(w)))


def test_locality_lyndon_generators_match_brute_force():
    S = subset_alphabet()
    s1, s2, s12, s23, s3 = (frozenset(s) for s in ({1}, {2}, {1, 2}, {2, 3}, {3}))
    for alphabet, letters, max_length in (
            (A, [1, 2, 3], 6), (A, [3, 1, 3, X0], 6), (A, [X0, X0, 4, 1, 2], 5),
            (A, [2], 6), (A, [X0], 5), (A, [], 3),
            (S, [s1, s2, s12], 5), (S, [s12, s23, s3, X0, s12], 5), (S, [s1, s1, s23], 6)):
        assert (locality_lyndon_generators(alphabet, max_length, letters)
                == brute_generators(alphabet, max_length, letters)), (letters, max_length)


def test_locality_lyndon_generators_word_limit(monkeypatch):
    """The limit's boundary; the CLI test of the limit runs it at its value."""
    monkeypatch.setitem(LIMITS, "generators", 20)
    assert len(locality_lyndon_generators(A, 5, letters=[1, 2])) == 20
    with pytest.raises(BudgetExceeded):  # the walk passes 20 words
        locality_lyndon_generators(A, 6, letters=[1, 2])
    with pytest.raises(BudgetExceeded):  # x0^k x1 alone, k < 21, is too many
        locality_lyndon_generators(A, 21, letters=[1])

    def unreachable(u, v):
        raise AssertionError("the walk started")

    # so is x0^k u over two letters, and that raises before the walk starts
    unwalked = Alphabet(key=lambda u: u, local=unreachable, name="unwalked")
    for max_length in (10 ** 5, 10 ** 9):
        with pytest.raises(BudgetExceeded):
            locality_lyndon_generators(unwalked, max_length, letters=[1, 2])


def test_locality_lyndon_generators_length_limit():
    """A generator is the word of a spec, so the length bound stops at the
    spec weight limit, 1024; with the word limit that caps the output at
    2^22 letters.  Every input below is refused before the walk starts."""
    def unreachable(u, v):
        raise AssertionError("the walk started")

    unwalked = Alphabet(key=lambda u: u, local=unreachable, name="unwalked")
    for max_length, letters in ((1025, [1]), (4096, [1]), (2048, [1, 2])):
        with pytest.raises(BudgetExceeded,
                           match=f"^max length {max_length} exceeds the limit 1024$"):
            locality_lyndon_generators(unwalked, max_length, letters=letters)
    # inside the length bound, five letters give 5 * 1024 words x0^k u
    with pytest.raises(BudgetExceeded, match="^locality Lyndon words up to length 1024: "
                                             "at least 5120 exceeds the limit 4096$"):
        locality_lyndon_generators(unwalked, 1024, letters=[1, 2, 3, 4, 5])


def test_local_words():
    assert is_local_word((X0, 1, X0, 2), A)
    assert not is_local_word((1, 1), A)
    assert local_word_pair((1,), (2,), A)
    assert not local_word_pair((1, 2), (2,), A)
    assert is_local_word((), A)


def test_locality_closure_of_shuffle():
    rng = random.Random(9)
    for _ in range(60):
        w = tuple(rng.choice([X0, 1]) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice([X0, 2]) for _ in range(rng.randint(0, 4)))
        if not (is_local_word(w, A) and is_local_word(v, A)
                and local_word_pair(w, v, A)):
            continue
        for u in shuffle(w, v).coeffs:
            assert is_local_word(u, A)


def test_locality_cfl_examples():
    assert locality_cfl((1, 2), A) == ([(1, 2)], 0) if is_lyndon((1, 2), A) else True
    assert locality_cfl((X0, X0), A) == ([], 2)
    assert locality_cfl((2, X0, 1), A) == ([(2,), (X0, 1)], 0)
    with pytest.raises(NotLocal):
        locality_cfl((1, 1), A)


def test_locality_cfl_bruteforce_all_local_words():
    for w in all_words((X0, 1, 2), 4):
        if not is_local_word(w, A):
            continue
        factors, r = locality_cfl(w, A)
        rebuilt = tuple(a for f in factors for a in f) + (X0,) * r
        assert rebuilt == w
        keys = [A.word_key(f) for f in factors]
        assert keys == sorted(keys, reverse=True)
        assert len(set(factors)) == len(factors)
        for f in factors:
            assert is_lyndon(f, A) and f != (X0,)
        for a, b in itertools.combinations(factors, 2):
            assert local_word_pair(a, b, A)


def test_locality_lyndon_generators_examples():
    assert locality_lyndon_generators(A, 2, letters=[1]) == [(1,), (X0, 1)]
    assert locality_lyndon_generators(A, 1, letters=[1, 2]) == [(1,), (2,)]
    gens = locality_lyndon_generators(A, 2, letters=[1, 2])
    assert gens == [(1,), (2,), (X0, 1), (X0, 2), (1, 2)]
    assert locality_lyndon_generators(A, 2, letters=[2, 1, 2]) == gens
    # x0 is always in the pool; listing it as well adds no duplicate words
    want = [(1,), (X0, 1), (X0, X0, 1)]
    assert locality_lyndon_generators(A, 3, letters=[1]) == want
    assert locality_lyndon_generators(A, 3, letters=[X0, 1]) == want
    assert locality_lyndon_generators(A, 3, letters=[1, X0, X0]) == want


def test_locality_algebraic_independence():
    """Distinct locality monomials in locality Lyndon words, expanded by the
    shuffle, are linearly independent (exact rank over the word basis)."""
    gens = locality_lyndon_generators(A, 3, letters=[1, 2, 3])
    monomials = []
    for r in range(1, 3):
        for combo in itertools.combinations_with_replacement(gens, r):
            if sum(len(w) for w in combo) > 4:
                continue
            flat = [a for w in combo for a in w]
            if not is_local_word(tuple(flat), A):
                continue
            if any(combo.count(w) > 1 and any(a is not X0 for a in w) for w in combo):
                continue
            monomials.append(combo)
    vectors = []
    for combo in monomials:
        wp = LinComb({(): 1})
        for w in combo:
            wp = wp.shuffle_with(LinComb({w: 1}))
        vectors.append(wp.coeffs)
    basis = sorted({w for vec in vectors for w in vec},
                   key=lambda t: (len(t), A.word_key(t)))
    matrix = [[vec.get(w, Fraction(0)) for w in basis] for vec in vectors]
    assert _rank(matrix) == len(monomials)


def _rank(matrix):
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_subset_alphabet_order_and_locality():
    S = subset_alphabet()
    a, b = frozenset({3, 1}), frozenset({3})
    assert S.letter_key(a) > S.letter_key(b)  # longer wins on equal prefix
    assert S.letter_key(frozenset({2})) < S.letter_key(frozenset({3}))
    assert S.local_letters(frozenset({1}), frozenset({2}))
    assert not S.local_letters(frozenset({1, 2}), frozenset({2, 3}))
    assert S.local_letters(X0, frozenset({1}))
