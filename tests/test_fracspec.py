import random
from fractions import Fraction

import pytest

from linpole import (DEFAULT_Q, Forest, ForestNode, FractionSpec, GermCombo, LinComb,
                     LinearForm, LinpoleError, NotLocal, NotLocalSpec, ParseError,
                     RationalGerm, WordEndsInX0, X0, chen_lmap, expand_product,
                     flatten_forest, forest_fraction, germ_mul, germ_scale,
                     germ_sum, is_local_pair, lyndon_decompose, lyndon_rewrite,
                     orthogonal, parse_spec, phi, shuffle, span, spec_of_word,
                     speer_lmap, weak_chen_lmap, word_of_fraction, zset, zvar)

from helpers import (combination_equals_germ, fraction_shuffle,
                     random_point_off_poles)

chen = chen_lmap()
speer = speer_lmap()
z1, z2 = zvar(1), zvar(2)


def test_phi_examples():
    assert phi((1,), chen) == RationalGerm(1, [(z1, 1)])
    assert phi((X0, 1), chen) == RationalGerm(1, [(z1, 2)])
    # suffix-cumulative alignment: the first block carries the full sum
    assert phi((1, 2), chen) == RationalGerm(1, [(z2, 1), (z1 + z2, 1)])
    assert phi((), chen) == RationalGerm(1)


def test_phi_errors():
    with pytest.raises(WordEndsInX0):
        phi((1, X0), chen)


def test_word_of_fraction_examples():
    assert word_of_fraction(FractionSpec((2,), (1,), chen)) == (X0, 1)
    assert word_of_fraction(FractionSpec((1, 1), (1, 2), chen)) == (1, 2)
    s = FractionSpec((1, 2), ({1}, {2}), speer)
    assert word_of_fraction(s) == (frozenset({1}), X0, frozenset({2}))
    with pytest.raises(NotLocalSpec):
        word_of_fraction(FractionSpec((1, 1), (1, 1), chen))


def test_phi_word_roundtrip_random():
    rng = random.Random(10)
    for _ in range(60):
        k = rng.randint(0, 3)
        letters = rng.sample(range(1, 7), k)
        exps = [rng.randint(1, 3) for _ in range(k)]
        spec = FractionSpec(exps, letters, chen)
        w = word_of_fraction(spec)
        assert spec_of_word(w, chen) == spec
        assert phi(w, chen) == spec.germ()


def test_expand_product_examples():
    a, b = FractionSpec((1,), (1,), chen), FractionSpec((1,), (2,), chen)
    combo = expand_product(a, b)
    assert sorted((repr(s), c) for s, c in combo) == [
        ("f[1,1;1,2]", Fraction(1)), ("f[1,1;2,1]", Fraction(1))]
    assert GermCombo([(c, (s,)) for s, c in combo]).germ() == \
        RationalGerm(1, [(z1, 1), (z2, 1)])

    a2, b2 = FractionSpec((2,), (1,), chen), FractionSpec((2,), (2,), chen)
    combo2 = expand_product(a2, b2)
    assert sorted((repr(s), c) for s, c in combo2) == [
        ("f[2,2;1,2]", Fraction(1)), ("f[2,2;2,1]", Fraction(1)),
        ("f[3,1;1,2]", Fraction(2)), ("f[3,1;2,1]", Fraction(2))]
    assert GermCombo([(c, (s,)) for s, c in combo2]).germ() == \
        germ_mul(a2.germ(), b2.germ())

    empty = FractionSpec((), (), chen)
    assert expand_product(a, empty) == [(a, Fraction(1))]


def test_expand_product_requires_locality():
    a = FractionSpec((1,), (1,), chen)
    with pytest.raises(NotLocal):
        expand_product(a, a)
    # NotLocal exactly when the two germs are not a local pair
    rng = random.Random(41)
    outcomes = {True: 0, False: 0}
    for i in range(60):
        if i % 2:
            lmap, letter = chen, lambda: rng.randint(1, 5)
        else:
            lmap, letter = speer, lambda: frozenset(rng.sample(range(1, 6), rng.randint(1, 2)))
        s1, s2 = (FractionSpec([rng.randint(1, 2) for _ in lets], lets, lmap)
                  for lets in ([letter() for _ in range(rng.randint(1, 3))] for _ in range(2)))
        local = is_local_pair(s1.germ(), s2.germ(), DEFAULT_Q)
        outcomes[local] += 1
        if local:
            expand_product(s1, s2)
        else:
            with pytest.raises(NotLocal):
                expand_product(s1, s2)
    assert min(outcomes.values()) >= 10


def test_expand_product_letter_locality_matches_orthogonal_pole_spans():
    """On the built-in maps the letter test of expand_product agrees with
    the span test it replaced: the pole forms of the two specs span
    subspaces orthogonal under DEFAULT_Q.  Letters may repeat."""
    rng = random.Random(30)
    outcomes = {True: 0, False: 0}
    for i in range(20000):
        if i % 2:
            lmap, letter = chen, lambda: rng.randint(1, 5)
        else:
            lmap, letter = speer, lambda: frozenset(rng.sample(range(1, 6), rng.randint(1, 2)))
        s1, s2 = (FractionSpec([rng.randint(1, 2) for _ in lets], lets, lmap)
                  for lets in ([letter() for _ in range(rng.randint(1, 3))] for _ in range(2)))
        spans = (span(f for f, _ in s.denominator_entries()) for s in (s1, s2))
        local = orthogonal(DEFAULT_Q, *spans)
        outcomes[local] += 1
        try:
            expand_product(s1, s2)
        except NotLocal:
            assert not local, (s1, s2)
        else:
            assert local, (s1, s2)
    assert min(outcomes.values()) >= 5000


def test_expand_product_under_a_map_that_is_not_a_locality_map():
    """Letters 1 and 3 are local but their telescoping forms are not
    orthogonal: the shuffle expansion is returned, and it is still the germ
    product, Phi being a shuffle homomorphism for any assignment."""
    from linpole import LMap
    from linpole.words import integer_alphabet

    half = Fraction(1, 2)
    telescoping = LMap(integer_alphabet(),
                       lambda u: LinearForm({u: half, u + 1: -half}), "telescoping")
    a = FractionSpec((2, 1), (1, 3), telescoping)
    b = FractionSpec((1,), (2,), telescoping)
    spans = (span(f for f, _ in s.denominator_entries()) for s in (a, b))
    assert not orthogonal(DEFAULT_Q, *spans)
    combo = expand_product(a, b)
    assert len(combo) == 4  # the shuffles of x0x1x3 and x2
    assert germ_sum(germ_scale(s.germ(), c) for s, c in combo) == germ_mul(a.germ(), b.germ())


def test_homomorphism_random_pairs():
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        let1 = rng.sample(range(1, 5), k1)
        let2 = rng.sample([u for u in range(1, 8) if u not in let1], k2)
        s1 = FractionSpec([rng.randint(1, 2) for _ in range(k1)], let1, chen)
        s2 = FractionSpec([rng.randint(1, 2) for _ in range(k2)], let2, chen)
        combo = expand_product(s1, s2)
        assert combination_equals_germ(combo, germ_mul(s1.germ(), s2.germ()), rng)
        checked += 1


def test_linear_independence_of_locality_fractions():
    rng = random.Random(13)
    for _ in range(5):
        specs = set()
        while len(specs) < 10:
            k = rng.randint(1, 3)
            letters = rng.sample(range(1, 6), k)
            exps = tuple(rng.randint(1, 3) for _ in range(k))
            specs.add(FractionSpec(exps, letters, chen))
        specs = sorted(specs, key=FractionSpec.sort_key)
        assert _independent_by_evaluation(specs, rng)


def _independent_by_evaluation(specs, rng, n_points=18):
    germs = [s.germ() for s in specs]
    variables = sorted({v for g in germs for v in g.variables()})
    matrix = []
    for _ in range(n_points):
        pt = random_point_off_poles(rng, germs, variables)
        matrix.append([g.evaluate(pt) for g in germs])
    cols = len(specs)
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if piv is None:
            return False
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank == cols


def test_phi_not_injective_without_locality():
    wc = weak_chen_lmap()
    assert phi((X0, 1), wc) == RationalGerm(1, [(z1, 2)])
    assert phi((1, 1), wc) == germ_scale(RationalGerm(1, [(z1, 2)]), Fraction(1, 2))


def test_lyndon_decompose_examples():
    with pytest.raises(NotLocalSpec):
        lyndon_decompose([(FractionSpec((1, 1), (1, 1), chen), Fraction(1))])
    gen = FractionSpec((2,), (1,), chen)
    out = lyndon_decompose([(gen, Fraction(1))])
    assert out == {(gen,): Fraction(1)}
    combo = [(FractionSpec((1, 1), (1, 2), chen), Fraction(1)),
             (FractionSpec((1, 1), (2, 1), chen), Fraction(1))]
    out = lyndon_decompose(combo)
    f1 = FractionSpec((1,), (1,), chen)
    f2 = FractionSpec((1,), (2,), chen)
    assert out == {(f1, f2): Fraction(1)}


def test_lyndon_decompose_reconstructs():
    rng = random.Random(14)
    for _ in range(25):
        k = rng.randint(1, 3)
        letters = rng.sample(range(1, 5), k)
        spec = FractionSpec([rng.randint(1, 2) for _ in range(k)], letters, chen)
        poly = lyndon_decompose([(spec, Fraction(1))])
        assert GermCombo([(c, m) for m, c in poly.items()]).germ() == spec.germ()
    # shuffle products: re-expanding the Lyndon polynomial by shuffle gives
    # back the words of the product's combination
    pairs = [(FractionSpec((2, 2), (1, 2), chen), FractionSpec((2, 2), (3, 4), chen)),
             (FractionSpec((2, 1, 2), (1, 2, 3), chen), FractionSpec((2, 1), (4, 5), chen))]
    for _ in range(12):
        letters = rng.sample(range(1, 7), rng.randint(2, 4))
        cut = rng.randint(1, len(letters) - 1)
        pairs.append(tuple(FractionSpec([rng.randint(1, 2) for _ in part], part, chen)
                           for part in (letters[:cut], letters[cut:])))
    for a, b in pairs:
        combo = expand_product(a, b)
        poly = lyndon_decompose(combo)
        lyndon = LinComb({tuple(s.word() for s in mono): c
                          for mono, c in poly.items()})
        assert lyndon.expand() == LinComb({s.word(): c for s, c in combo}), (a, b)


def test_forest_fraction_examples():
    assert forest_fraction(Forest([ForestNode({1, 2})])) == \
        RationalGerm(1, [(z1 + z2, 1)])
    ladder = Forest([ForestNode({1, 2}, [ForestNode({1})])])
    assert forest_fraction(ladder) == RationalGerm(1, [(z1, 1), (z1 + z2, 1)])
    wide = Forest([ForestNode({1, 2}, [ForestNode({1}), ForestNode({2})])])
    assert forest_fraction(wide) == RationalGerm(1, [(z1, 1), (z2, 1), (z1 + z2, 1)])


def test_forest_validation():
    with pytest.raises(ValueError):
        ForestNode({1}, [ForestNode({2})])  # child not inside parent
    with pytest.raises(ValueError):
        ForestNode({1, 2}, [ForestNode({1}), ForestNode({1})])  # overlap
    with pytest.raises(ValueError):
        ForestNode(set())


def test_flatten_forest_examples():
    two = Forest([ForestNode({1}), ForestNode({2})])
    out = sorted((repr(s), c) for s, c in flatten_forest(two))
    assert out == [("f[1,1;{1},{2}]", Fraction(1)), ("f[1,1;{2},{1}]", Fraction(1))]

    wide = Forest([ForestNode({1, 2}, [ForestNode({1}), ForestNode({2})])])
    combo = flatten_forest(wide)
    assert sorted(repr(s) for s, _ in combo) == ["f[2,1;{1},{2}]", "f[2,1;{2},{1}]"]
    assert GermCombo([(c, (s,)) for s, c in combo]).germ() == forest_fraction(wide)
    # the germ identity behind it
    lhs = germ_sum([RationalGerm(1, [(z1 + z2, 2), (z2, 1)]),
                    RationalGerm(1, [(z1 + z2, 2), (z1, 1)])])
    assert lhs == RationalGerm(1, [(z1, 1), (z2, 1), (z1 + z2, 1)])

    ladder = Forest([ForestNode({1, 2}, [ForestNode({1})])])
    out = flatten_forest(ladder)
    assert len(out) == 1 and out[0][1] == 1
    assert GermCombo([(c, (s,)) for s, c in out]).germ() == forest_fraction(ladder)


def random_forest(rng: random.Random, pool, max_children=3, depth=0):
    take = rng.randint(1, min(3, len(pool)))
    mine = set(rng.sample(sorted(pool), take))
    rest = sorted(set(pool) - mine)
    kids = []
    if depth < 2 and rest and rng.random() < 0.7:
        avail = list(rest)
        for _ in range(rng.randint(1, max_children)):
            if not avail:
                break
            size = rng.randint(1, min(2, len(avail)))
            kid_set = set(rng.sample(avail, size))
            avail = [x for x in avail if x not in kid_set]
            kids.append(kid_set)
    node_set = mine | {x for k in kids for x in k}
    children = [ForestNode(k) for k in kids]
    return ForestNode(node_set, children, exponent=rng.randint(1, 2))


def test_flatten_forest_random_identity():
    rng = random.Random(15)
    for _ in range(50):
        n_roots = rng.randint(1, 2)
        pools = [set(range(1 + 4 * i, 5 + 4 * i)) for i in range(n_roots)]
        forest = Forest([random_forest(rng, p) for p in pools])
        assert sum(1 for _ in forest.nodes()) <= 8
        combo = flatten_forest(forest)
        # output is Speer-local: pairwise disjoint letter sets, positive exps
        for s, _c in combo:
            assert s.is_local()
        target = forest_fraction(forest)
        germs = [s.germ() for s, _ in combo] + [target]
        variables = sorted({v for g in germs for v in g.variables()})
        for _ in range(3):
            pt = random_point_off_poles(rng, germs, variables)
            lhs = sum((c * s.germ().evaluate(pt) for s, c in combo), Fraction(0))
            assert lhs == target.evaluate(pt)


def random_full_forest(rng: random.Random, indices):
    """A forest whose nodes cover exactly `indices`: each node passes a
    random subset of its set down to its children, below the top two levels
    a proper one."""
    def build(s, depth):
        rest = rng.sample(s, rng.randint(0, len(s) - (depth >= 2)))
        kids = []
        while rest:
            k = rng.randint(1, len(rest))
            kids.append(build(rest[:k], depth + 1))
            rest = rest[k:]
        return ForestNode(s, kids, exponent=rng.randint(1, 2))

    idx = rng.sample(indices, len(indices))
    cut = rng.randint(1, len(idx))
    return Forest([build(part, 0) for part in (idx[:cut], idx[cut:]) if part])


def fraction_forest_words(nodes):
    """Oracle: the words of a forest, folded in Fractions over brute_shuffle."""
    acc = {(): Fraction(1)}
    for n in nodes:
        tree = {}
        for w, c in fraction_forest_words(n.children).items():
            fresh = n.index_set.difference(*(a for a in w if a is not X0))
            head = (X0,) * (n.exponent - 1) + (fresh,) if fresh else (X0,) * n.exponent
            tree[head + w] = tree.get(head + w, Fraction(0)) + c
        acc = fraction_shuffle(acc, tree)
    return acc


def test_flatten_forest_matches_fraction_fold():
    rng = random.Random(19)
    for _ in range(40):
        forest = random_full_forest(rng, list(range(1, rng.randint(4, 6) + 1)))
        got = flatten_forest(forest)
        want = {spec_of_word(w, speer): c
                for w, c in fraction_forest_words(forest.roots).items()}
        assert dict(got) == want and len(got) == len(want), forest


def test_coefficients_leave_the_words_layer_as_fractions():
    combo = expand_product(FractionSpec((2, 1), (1, 2), chen),
                           FractionSpec((2,), (3,), chen))
    forest = Forest([ForestNode({1}, exponent=2),
                     ForestNode({2, 3}, [ForestNode({3})], exponent=2)])
    outputs = {
        "shuffle": shuffle((X0, 1), (X0, 2)).coeffs.values(),
        "expand": LinComb({((X0, 1), (1,)): 3}).expand().coeffs.values(),
        "lyndon_rewrite": lyndon_rewrite((1, 1, X0, X0, 1), chen.alphabet).coeffs.values(),
        "lyndon_decompose": lyndon_decompose(combo).values(),
        "expand_product": [c for _, c in combo],
        "flatten_forest": [c for _, c in flatten_forest(forest)],
    }
    for name, values in outputs.items():
        assert values and all(type(c) is Fraction for c in values), name


def test_spec_of_word_matches_validating_constructor():
    """spec_of_word wraps its vectors unchecked; the spec must be the one the
    validating constructor builds from the same exponents and letters."""
    rng = random.Random(43)
    for trial in range(200):
        lmap = chen if trial % 2 else speer
        word = []
        for _ in range(rng.randint(1, 5)):
            word += [X0] * rng.choice((0, 0, 1, 2))
            if lmap is chen:
                word.append(rng.randint(1, 4))
            else:
                word.append(frozenset(rng.sample(range(1, 5), rng.randint(1, 3))))
        spec = spec_of_word(tuple(word), lmap)
        ref = FractionSpec([int(s) for s in spec.exponents],
                           [set(u) if isinstance(u, frozenset) else u for u in spec.letters],
                           lmap)
        assert spec == ref and hash(spec) == hash(ref) and repr(spec) == repr(ref)
        assert spec.word() == tuple(word)
        assert type(spec.exponents) is tuple and type(spec.letters) is tuple
    for letter in ((1, 2), [1, 2], {1, 2}):  # not canonical: a frozenset, as the constructor makes it
        spec = spec_of_word((X0, letter), speer)
        assert spec == FractionSpec((2,), (frozenset({1, 2}),), speer) and repr(spec) == "f[2;{1,2}]"
    empty = spec_of_word((), chen)
    ref = FractionSpec((), (), chen)
    assert empty == ref and hash(empty) == hash(ref) and repr(empty) == repr(ref)


def test_forest_json_roundtrip():
    wide = Forest([ForestNode({1, 2}, [ForestNode({1}), ForestNode({2})], 2)])
    data = {"nodes": [{"set": [1, 2], "exp": 2, "children": [{"set": [1]}, {"set": [2]}]}]}
    back = Forest.from_json(data)
    assert forest_fraction(back) == forest_fraction(wide)
    assert [sorted(n.index_set) for n in back.nodes()] == \
        [sorted(n.index_set) for n in wide.nodes()]


def test_speer_flatten_matches_chen_on_singletons():
    # singleton sets reproduce the Chen pattern
    ladder = Forest([ForestNode({1, 2, 3}, [ForestNode({1, 2}, [ForestNode({2})])])])
    combo = flatten_forest(ladder)
    assert GermCombo([(c, (s,)) for s, c in combo]).germ() == forest_fraction(ladder)


def test_zero_cumulative_form_detected():
    from linpole import LMap, ZeroCumulativeForm
    from linpole.words import integer_alphabet

    cancelling = LMap(integer_alphabet(),
                      lambda u: zvar(1) if u == 1 else zvar(1).scale(-1),
                      "cancelling")
    spec = FractionSpec((1, 1), (1, 2), cancelling)  # constructing does not raise
    for _ in range(2):
        with pytest.raises(ZeroCumulativeForm, match="vanished at x1$"):
            spec.germ()


def test_empty_index_set_is_not_a_speer_letter():
    with pytest.raises(ValueError, match="nonempty index set"):
        zset([])
    with pytest.raises(LinpoleError, match=r"letter x\{\} is outside the alphabet of L-map"):
        speer_lmap().form(frozenset())


def test_denominator_entries_cached_tuple():
    spec = FractionSpec((2, 1), (1, 2), chen)
    entries = spec.denominator_entries()
    assert entries == ((zvar(2), 1), (zvar(1) + zvar(2), 2))
    assert spec.denominator_entries() is entries
    # equal vectors under one L-map share the forms; another L-map of the
    # same name has forms of its own
    assert FractionSpec((2, 1), (1, 2), chen).denominator_entries() is entries
    from linpole import LMap
    shifted = LMap(chen.alphabet, lambda u: zvar(u + 1), "chen")
    assert FractionSpec((2, 1), (1, 2), shifted).denominator_entries() == (
        (zvar(3), 1), (zvar(2) + zvar(3), 2))


def test_sort_key_kept():
    spec = parse_spec("f[2,1;3,1]")
    key = spec.sort_key()
    assert key == ("chen", chen.alphabet.word_key((X0, 3, 1)))
    assert spec.sort_key() is key


def test_builtin_lmaps_are_shared_and_immutable():
    """Every parsed spec holds the one built-in L-map of its alphabet, so
    no assignment may change it under them."""
    assert parse_spec("f[2;1]").lmap is parse_spec("f[3;2]").lmap is chen_lmap() is chen
    assert parse_spec("f[1;{1}]").lmap is speer_lmap() is speer
    assert weak_chen_lmap() is weak_chen_lmap() is not chen
    spec = parse_spec("f[2;1]")
    before = hash(spec)
    for lmap in (chen, weak_chen_lmap(), speer):
        for name in ("name", "alphabet", "assign", "q", "extra"):
            with pytest.raises(AttributeError):
                setattr(lmap, name, "x")
    assert chen.name == "chen" and hash(spec) == before
    assert spec == FractionSpec((2,), (1,), chen)


def test_a_second_lmap_of_a_builtin_name_keeps_its_specs():
    """Specs tell L-maps apart by object: a spec under another map named
    chen, sending letter u to z_(u+1), is never merged with, or rebuilt
    under, the built-in map."""
    from linpole import LMap
    from linpole.words import integer_alphabet
    shifted = LMap(integer_alphabet(), lambda u: zvar(u + 1), "chen")
    mine, builtin = FractionSpec((2, 1), (2, 1), shifted), parse_spec("f[2,1;2,1]")
    assert mine != builtin and repr(mine) == repr(builtin)
    assert mine == FractionSpec((2, 1), (2, 1), shifted)
    assert hash(mine) == hash(FractionSpec((2, 1), (2, 1), shifted))
    combo = GermCombo([(1, (mine,)), (1, (builtin,))])
    assert [specs[0].lmap for _, specs in combo.terms] == [shifted, chen]
    assert repr(combo) == "(1)*f[2,1;2,1] + (1)*f[2,1;2,1]"
    assert combo.germ() == germ_sum([mine.germ(), builtin.germ()])
    for first, second in ((mine, builtin), (builtin, mine)):
        out = lyndon_decompose([(first, Fraction(1)), (second, Fraction(2))])
        assert out == {(first,): 1, (second,): 2}
        assert [m[0].lmap for m in out] == [first.lmap, second.lmap]
    a, b = FractionSpec((1,), (1,), shifted), FractionSpec((2,), (2,), shifted)
    for x, y in ((a, parse_spec("f[2;2]")), (parse_spec("f[1;1]"), b)):
        with pytest.raises(ValueError, match="different L-maps"):
            expand_product(x, y)
    product = expand_product(a, b)
    assert all(s.lmap is shifted for s, _ in product)
    assert GermCombo([(c, (s,)) for s, c in product]).germ() == germ_mul(a.germ(), b.germ())


def _summed_entries(spec):
    """(cumulative form, exponent) pairs, each form a validating LinearForm sum."""
    acc, out = LinearForm(), []
    for s, u in zip(reversed(spec.exponents), reversed(spec.letters)):
        acc = acc + spec.lmap.form(u)
        out.append((acc, s))
    return tuple(out)


def test_denominator_entries_match_validating_sums():
    from linpole import LMap, ZeroCumulativeForm
    from linpole.words import integer_alphabet

    # letter u -> (z_u - z_(u+1))/2: consecutive letters cancel in part, and
    # later letters bring smaller variables into the running sum
    half = Fraction(1, 2)
    telescoping = LMap(integer_alphabet(),
                       lambda u: LinearForm({u: half, u + 1: -half}), "telescoping")
    specs = [parse_spec("f[2,1,3;1,3,2]"), parse_spec("f[1;5]"),
             FractionSpec((1, 1), (1, 1), weak_chen_lmap()),
             parse_spec("f[1,2,1;{2,4},{1},{3,5}]"),
             FractionSpec((1, 2, 1), (3, 1, 2), telescoping),
             FractionSpec((1, 1), (2, 1), telescoping)]
    for spec in specs:
        entries, expected = spec.denominator_entries(), _summed_entries(spec)
        assert entries == expected
        for (form, s), (want, t) in zip(entries, expected):
            assert (s, hash(form), repr(form)) == (t, hash(want), repr(want))
            assert list(form.coeffs.items()) == list(want.coeffs.items())  # ascending keys
            assert all(type(c) is Fraction and c for c in form.coeffs.values())
    assert specs[4].denominator_entries()[1:] == ((LinearForm({1: half, 3: -half}), 2),
                                                  (LinearForm({1: half, 4: -half}), 1))
    # the empty set is no Speer letter: no spec reaches a zero cumulative
    # form through it
    with pytest.raises(ParseError, match="empty set letter"):
        parse_spec("f[1,1;{1},{}]")
    with pytest.raises(LinpoleError, match="outside the alphabet of L-map speer"):
        FractionSpec((1, 1), ({1}, ()), speer_lmap()).denominator_entries()


def test_custom_lmap_locality_registration_check():
    from linpole import LMap
    from linpole.words import integer_alphabet

    # 1 and 2 are local letters but both map to z1: not a locality map
    with pytest.raises(ValueError):
        LMap(integer_alphabet(), lambda u: zvar(1), "bad",
             check_locality_on=[1, 2])
    # distinct coordinates pass
    LMap(integer_alphabet(), lambda u: zvar(u), "good",
         check_locality_on=[1, 2, 3])


def test_word_side_roundtrip_on_local_words():
    from linpole.words import X0, is_local_word
    rng = random.Random(16)
    alphabet = chen.alphabet
    for _ in range(60):
        w = []
        used = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                w.append(X0)
            else:
                fresh = rng.choice([u for u in range(1, 9) if u not in used])
                used.append(fresh)
                w.append(fresh)
        if not w or w[-1] is X0 or not is_local_word(tuple(w), alphabet):
            continue
        w = tuple(w)
        assert word_of_fraction(spec_of_word(w, chen)) == w
