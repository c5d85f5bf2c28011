"""Seeded inputs, parsing and the item list of each workload.

An item is one public-API call on parsed inputs.  A workload is a fixed
number of rounds; round r of seed s draws its inputs from its own generator,
so the same (workload, seed, rounds) always yields the same items.  Each round
has a fixed make-up (the same kinds and sizes of input in the same order);
the shape of its costly inputs comes from the round number alone and the
seed draws the values, which keeps the cost of a run nearly independent of
the seed.

generate() makes plain data and the text the program receives;
parse() turns the text into linpole objects (the set-up a user pays);
plan() returns the items, each a call and a check of its output against
bench/oracles.py.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import oracles as O

# Rounds per second of nominal (scaled) time on the program as of the commit
# that added the benchmark; a run of --seconds S does round(S * rate) rounds,
# which took 15-17 scaled seconds of items then (zeta-renorm: 23, for enough
# of its costliest items to steady the tail).
ROUNDS_PER_SECOND = {"germ-queries": 4.0, "chen-shuffle": 15.0, "zeta-renorm": 2.0}

WORKLOADS = tuple(ROUNDS_PER_SECOND)


# Enough rounds for at least 40 items, so that the tail percentile has ten
# items beyond it.
MIN_ROUNDS = {"germ-queries": 2, "chen-shuffle": 4, "zeta-renorm": 3}


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], round(seconds * ROUNDS_PER_SECOND[workload]))


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _form_text(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("-" if c < 0 else "+") + f"{mag}z{i + 1}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _poly_text(num):
    parts = []
    for mono, c in num.items():
        vars_ = [f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}" for i, e in enumerate(mono) if e]
        body = "*".join([str(abs(c))] + vars_)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text.startswith("+") else text


def _germ_text(num, den):
    dens = "*".join(f"({_form_text(c)})^{e}" for c, e in den)
    return f"({_poly_text(num)})/({dens})"


def _spec_text(exps, letters):
    return f"f[{','.join(map(str, exps))};{','.join(map(str, letters))}]"


def _unit(n, i):
    return tuple(1 if v == i else 0 for v in range(n))


def _random_poly(shape, rng, nvars, width, degrees):
    """One monomial of each listed degree in the first nvars variables; the
    variables come from `shape`, the coefficients from `rng`."""
    num = {}
    for deg in degrees:
        mono = [0] * width
        for _ in range(deg):
            mono[shape.randrange(nvars)] += 1
        num[tuple(mono)] = num.get(tuple(mono), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {m: c for m, c in num.items() if c} or {(0,) * width: 1}


# ---------------------------------------------------------------------------
# germ-queries
# ---------------------------------------------------------------------------

# Main germs live in z1..z3; the locality partner adds z4.  The shape of each
# germ (which forms, which exponents, which numerator monomials) comes from
# the round number alone: it cycles through the catalogues below and draws
# the rest (ladder variables, signs of independent forms) from a generator
# seeded by the round.  The seed draws every numerator coefficient, the extra
# factor of the second presentation and the Gram matrices.  Decompose cost
# depends mostly on the shape, so every seed costs about the same.
_W = 4
_INTERVALS = [(i, j) for i in range(3) for j in range(i, 3)]   # z_i + ... + z_j
_BRAID_SETS = list(itertools.combinations(range(len(_INTERVALS)), 3))
_EXPS = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1))
# supports of three independent forms over z1..z3
_SUPPORTS = (((0, 1), (1, 2), (0, 2)), ((0, 1, 2), (0, 1), (1, 2)),
             ((0, 1, 2), (0, 1, 2), (0, 1, 2)), ((0, 1), (1, 2), (0, 1, 2)),
             ((0, 2), (0, 1, 2), (1,)), ((0, 1, 2), (0, 2), (1, 2)))


def _braid(shape, rng, k):
    forms = [_INTERVALS[i] for i in _BRAID_SETS[k % len(_BRAID_SETS)]]
    den = [(tuple(1 if i <= v <= j else 0 for v in range(_W)), e)
           for (i, j), e in zip(forms, _EXPS[k % len(_EXPS)])]
    return _random_poly(shape, rng, 3, _W, (2, 1)), den


def _ladder(shape, rng, k):
    a, b = shape.sample(range(3), 2)
    e = [1, 2, 3]
    shape.shuffle(e)
    den = [(tuple(1 if v in (a, b) else 0 for v in range(_W)), e[0]),
           (_unit(_W, a), e[1]), (_unit(_W, b), e[2])]
    return _random_poly(shape, rng, 3, _W, (1,)), den


def _independent(shape, rng, k):
    supports = _SUPPORTS[k % len(_SUPPORTS)]
    while True:
        forms = [tuple(shape.choice((1, -1)) if v in sup else 0 for v in range(3)) + (0,)
                 for sup in supports]
        if O.rank(forms) == 3:
            break
    den = list(zip(forms, _EXPS[(k + 3) % len(_EXPS)]))
    return _random_poly(shape, rng, 3, _W, (3,) if k % 2 else (2, 1)), den


def _spd_gram(rng):
    """I + v v^T for a random nonzero v in {-1, 0, 1}^3."""
    v = [0, 0, 0]
    while not any(v):
        v = [rng.choice((-1, 0, 1)) for _ in range(3)]
    return [[(i == j) + v[i] * v[j] for j in range(3)] for i in range(3)]


def _germ_queries_round(rng, r):
    shape = O.seeded("germ-queries-shape", r)
    shapes = [(_braid, r), (_ladder, r), (_independent, r),
              (_braid, r // 2 + 7) if r % 2 == 0 else (_independent, r // 2 + 2)]
    germs = []
    for slot, (kind, k) in enumerate(shapes):
        num, den = kind(shape, rng, k)
        den_text = "*".join(f"({_form_text(c)})^{e}" for c, e in den)
        poly = _poly_text(num)
        extra = f"z{rng.randint(1, 3)}"
        partner = (1, 0, 0, 1) if slot % 2 else (0, 0, 0, 1)
        germs.append({
            "num": [[list(m), c] for m, c in num.items()],
            "den": [[list(c), e] for c, e in den],
            "gram": _spd_gram(rng) if slot == 3 else [],
            "partner": list(partner),
            "text": f"({poly})/({den_text})",
            "alt": f"(({poly})*({extra}))/(({den_text})*({extra}))",
            "partner_text": f"1/({_form_text(partner)})",
        })
    return {"germs": germs}


def _germ_struct(g):
    num = {tuple(m): c for m, c in g["num"]}
    den = [(tuple(c), e) for c, e in g["den"]]
    return num, den


def _parse_germ_queries(rnd, lp):
    out = []
    for g in rnd["germs"]:
        q = lp.InnerProduct(g["gram"]) if g["gram"] else lp.DEFAULT_Q
        out.append((lp.parse_germ(g["text"]), lp.parse_germ(g["alt"]),
                    lp.parse_germ(g["partner_text"]), q))
    return out


def _plan_germ_queries(rnd, parsed, lp, rng, add):
    for g, (f, alt, partner, q) in zip(rnd["germs"], parsed):
        num, den = _germ_struct(g)
        gram = g["gram"]
        res = {}

        def keep(name, fn, res=res):
            def call():
                res[name] = fn()
                return res[name]
            return call

        add("decompose", keep("dec", lambda f=f, q=q: lp.decompose(f, q)),
            lambda out, num=num, den=den, gram=gram:
                O.check_decomposition(out, num, den, 3, gram, rng))
        add("dependence", keep("dep", lambda f=f, q=q: lp.dependence(f, q)),
            lambda out, num=num, den=den, res=res:
                O.check_dependence(out, num, den, 3, res["dec"], rng))
        add("p_residue", lambda f=f, q=q: lp.p_residue(f, q),
            lambda out, num=num, den=den, res=res:
                O.check_p_residue(out, res["dec"], num, den, 3, rng))
        add("ms_eval", lambda f=f, q=q: lp.ms_eval(f, q),
            lambda out, res=res: O.check_ms(out, res["dec"]))
        add("is_local_pair", lambda f=f, p=partner, q=q: lp.is_local_pair(f, p, q),
            lambda out, res=res, pf=g["partner"], gram=gram:
                O.check_local_pair(out, res["dep"], pf, gram))
        add("decompose", lambda a=alt, q=q: lp.decompose(a, q),
            lambda out, res=res: O.require(out == res["dec"],
                                           "two presentations decompose differently"))


# ---------------------------------------------------------------------------
# chen-shuffle
# ---------------------------------------------------------------------------

# (total weight, total depth) of each spec pair in a round; word lengths of
# at most 5 keep lyndon_decompose within tens of milliseconds (see README).
# With these slots as many items cost less than expand_product as cost more,
# so the median item falls inside the tight expand_product cluster.
_PAIR_SLOTS = ((3, 2), (4, 2), (4, 3), (4, 3), (5, 3), (5, 3))
_SEEDED_PAIRS = 2   # the first two slots take their shape from the seed


def _composition(rng, total, parts, cap=3):
    exps = [1] * parts
    for _ in range(total - parts):
        exps[rng.choice([i for i in range(parts) if exps[i] < cap])] += 1
    return exps


def _spec_pair(shape, rng, weight, depth):
    """Depth split, exponents and the relative order of the letters come from
    `shape`, the letter values from `rng`."""
    da = shape.randint(max(1, depth - 3), min(3, depth - 1))
    exps = _composition(shape, weight, depth)
    order = shape.sample(range(depth), depth)
    chosen = sorted(rng.sample(range(1, 7), depth))
    letters = [chosen[i] for i in order]
    return (exps[:da], letters[:da]), (exps[da:], letters[da:])


def _random_forest(rng, indices):
    def build(s):
        node = {"set": sorted(s)}
        if rng.random() < 0.4:
            node["exp"] = 2
        rest = list(s)
        rng.shuffle(rest)
        rest = rest[:rng.randint(0, len(rest) - 1)]   # a proper subset goes below
        kids = []
        while rest:
            k = rng.randint(1, len(rest))
            kids.append(build(rest[:k]))
            rest = rest[k:]
        if kids:
            node["children"] = kids
        return node

    idx = list(indices)
    rng.shuffle(idx)
    cut = rng.randint(1, len(idx) - 1)
    return {"nodes": [build(idx[:cut]), build(idx[cut:])]}


def _chen_shuffle_round(rng, r):
    # The costlier pairs take their shape from the round number alone, so
    # every seed runs the same shapes there; the cheap ones vary with the seed.
    shape = O.seeded("chen-shuffle-shape", r)
    pairs = [_spec_pair(rng if i < _SEEDED_PAIRS else shape, rng, w, d)
             for i, (w, d) in enumerate(_PAIR_SLOTS)]
    forests = [_random_forest(rng, rng.sample(range(1, 7), rng.randint(4, 5))) for _ in range(2)]
    k = 2 if r % 2 == 0 else 3
    letters = rng.sample(range(1, 7), k)
    return {
        "pairs": [[list(a), list(b)] for a, b in pairs],
        "pair_texts": [[_spec_text(*a), _spec_text(*b)] for a, b in pairs],
        "forests": [json.dumps(f) for f in forests],
        "gen_letters": letters,
        "gen_length": 5 if k == 2 else 4,
        "gen_text": "".join(f"x{u}" for u in letters),
    }


def _parse_chen_shuffle(rnd, lp):
    specs = [(lp.parse_spec(a), lp.parse_spec(b)) for a, b in rnd["pair_texts"]]
    forests = [lp.Forest.from_json(json.loads(t)) for t in rnd["forests"]]
    return specs, forests, lp.parse_word(rnd["gen_text"])


def _plan_chen_shuffle(rnd, parsed, lp, rng, add):
    specs, forests, gen_word = parsed
    for (a, b), (sa, sb) in zip(rnd["pairs"], specs):
        res = {}

        def expand(sa=sa, sb=sb, res=res):
            res["combo"] = lp.expand_product(sa, sb)
            return res["combo"]

        add("expand_product", expand,
            lambda out, a=a, b=b: O.check_expansion(out, tuple(a), tuple(b), rng))
        add("lyndon_decompose", lambda res=res: lp.lyndon_decompose(res["combo"]),
            lambda out, res=res: O.check_lyndon_decomposition(out, res["combo"]))
    for text, forest in zip(rnd["forests"], forests):
        add("flatten_forest", lambda forest=forest: lp.flatten_forest(forest),
            lambda out, data=json.loads(text): O.check_forest(out, data, 6, rng))
    add("locality_lyndon_generators",
        lambda: lp.locality_lyndon_generators(lp.integer_alphabet(), rnd["gen_length"],
                                              letters=list(gen_word)),
        lambda out: O.check_generators(out, rnd["gen_letters"], rnd["gen_length"]))


# ---------------------------------------------------------------------------
# zeta-renorm
# ---------------------------------------------------------------------------

def _word_spec(word):
    exps, letters, run = [], [], 0
    for a in word:
        if a == O.X0:
            run += 1
        else:
            exps.append(run + 1)
            letters.append(a)
            run = 0
    return exps, letters


# iter_eval shapes: A is a chain of nested sets over three variables (set of
# the first n variables, exponent e), times 1 or a squared difference of two
# of them (places in the chain); B is a germ in two more variables.  The
# product A*B has five variables; these eight shapes all cost 0.25-0.45 s
# there, so the product is the costliest item of every round and the items
# at the tail percentile all come from one tight cluster (README).
_ITER_SHAPES = (
    (((3, 2), (1, 1)), None, "chain"),
    (((3, 2), (1, 2)), (1, 2), "chain"),
    (((3, 1), (2, 1)), None, "chain"),
    (((3, 2), (2, 2)), (1, 2), "chain"),
    (((3, 2),), None, "ratio"),
    (((3, 2), (1, 2)), None, "chain_diff"),
    (((3, 1), (2, 2), (1, 1)), (0, 1), "chain"),
    (((3, 1), (2, 2)), (0, 2), "chain"),
)


def _mono(*vs):
    return tuple(sum(1 for v in vs if v == i + 1) for i in range(5))


def _square_diff(a, b):
    return {_mono(a, a): 1, _mono(a, b): -2, _mono(b, b): 1}


def _form(*vs):
    return tuple(1 if i + 1 in vs else 0 for i in range(5))


def _iter_pair(k, rng):
    """Germs A (variables 1-3) and B (variables 4-5) of shape k.  The seed
    only decides which variable takes which place; iter_eval averages over
    every order of the variables, so neither value nor cost depends on it."""
    chain, pair, kind = _ITER_SHAPES[k % len(_ITER_SHAPES)]
    vs = rng.sample((1, 2, 3), 3)
    num_a = _square_diff(vs[pair[0]], vs[pair[1]]) if pair else {_mono(): 1}
    den_a = [(_form(*vs[:n]), e) for n, e in chain]
    a, b = rng.sample((4, 5), 2)
    if kind == "ratio":        # ((za - zb)/(za + zb))^2, iterated value 1
        germ_b = _square_diff(a, b), [(_form(a, b), 2)]
    elif kind == "chain":
        germ_b = {_mono(): 1}, [(_form(a, b), 1)]
    else:
        germ_b = _square_diff(a, b), [(_form(a, b), 1), (_form(a), 1)]
    return (num_a, den_a), germ_b


def _rename(germ, perm):
    """Variable v becomes perm[v - 1]."""
    def move(vec):
        out = [0] * len(vec)
        for i, e in enumerate(vec):
            out[perm[i] - 1 if i < len(perm) else i] += e
        return tuple(out)
    num, den = germ
    return {move(m): c for m, c in num.items()}, [(move(f), e) for f, e in den]


def _product(x, y):
    (nx, dx), (ny, dy) = x, y
    num = {}
    for m1, c1 in nx.items():
        for m2, c2 in ny.items():
            m = tuple(p + q for p, q in zip(m1, m2))
            num[m] = num.get(m, 0) + c1 * c2
    return num, dx + dy


def _zeta_renorm_round(rng, r):
    # Exponents, the relative order of letters and the iter_eval shapes come
    # from the round number alone; the seed picks letter values, coefficients
    # and variable names.
    shape = O.seeded("zeta-renorm-shape", r)
    k = 2 if r % 2 == 0 else 3
    letters = sorted(rng.sample(range(1, 7), k))
    length = 5 if k == 2 else 4
    gens = [_word_spec(w) for w in O.lyndon_generators(letters, length)]
    terms = []
    for _ in range(6):
        c = rng.randint(1, 3)
        order = [letters[i] for i in shape.sample(range(k), k)]
        if k == 2:
            sa = shape.randint(2, 3)
            sb = shape.randint(1, 5 - sa)
            terms.append((c, ((sa,), (order[0],)), ((sb,), (order[1],))))
        else:
            e = _composition(shape, shape.randint(3, 4), 3, cap=2)
            terms.append((c, ((e[0], e[1]), tuple(order[:2])), ((e[2],), (order[2],))))
    # iterated evaluation: A, B, their product, and A and B renamed
    ga, gb = _iter_pair(r, rng)
    perm = rng.sample((1, 2, 3), 3) + [5, 4]
    iter_germs = [ga, gb, _product(ga, gb), _rename(ga, perm), _rename(gb, perm)]
    return {
        "gen_texts": [_spec_text(*g) for g in gens],
        "terms": [[c, [list(x) for x in a], [list(x) for x in b]] for c, a, b in terms],
        "term_texts": [[c, _spec_text(*a), _spec_text(*b)] for c, a, b in terms],
        "iter_texts": [_germ_text(n, d) for n, d in iter_germs],
    }


def _parse_zeta_renorm(rnd, lp):
    gens = [lp.parse_spec(t) for t in rnd["gen_texts"]]
    combos = [lp.GermCombo([(lp.Polynomial.constant(c), (lp.parse_spec(a), lp.parse_spec(b)))])
              for c, a, b in rnd["term_texts"]]
    return gens, combos, [lp.parse_germ(t) for t in rnd["iter_texts"]]


def _plan_zeta_renorm(rnd, parsed, lp, rng, add):
    gens, combos, iter_germs = parsed
    terms = [[(c, (tuple(a[0]), a[1]), (tuple(b[0]), b[1]))] for c, a, b in rnd["terms"]]
    bound = Fraction(1, 10 ** 6)
    res = {}

    def galois(name, evaluator):
        def call():
            res[name] = lp.galois_from_evaluator(evaluator(), gens)
            return res[name]
        return call

    add("galois_from_evaluator", galois("zeta", lambda: lp.zeta_evaluator(8)),
        lambda out: O.check_shifts(out, gens, Fraction(1, 10 ** 8)))
    add("galois_from_evaluator", galois("ms", lp.ms_evaluator),
        lambda out: O.require(all(out.shift(g) == 0 for g in gens),
                              "minimal subtraction shifts a pure polar generator"))
    for combo, t in zip(combos, terms):
        add("zeta_eval", lambda combo=combo: lp.zeta_eval(combo, 8),
            lambda out, t=t: O.check_zeta_eval(out, t))
    for combo, t in zip(combos, terms):
        add("apply_transform", lambda combo=combo: lp.apply_transform(res["zeta"], combo),
            lambda out, t=t: O.check_transformed(out, t, bound))
    add("check_factorization",
        lambda: lp.check_factorization(lp.zeta_evaluator(8), res["zeta"], combos, bound),
        lambda out: O.check_factorization_report(out, [O.combo_value(t) for t in terms], bound))
    add("check_factorization",
        lambda: lp.check_factorization(lp.ms_evaluator(), res["ms"], combos),
        lambda out: O.check_factorization_report(out, [0] * len(combos), Fraction(0)))
    # A, B, A*B, renamed A, renamed B: iter_eval is unchanged by renaming
    # variables and multiplicative on germs in disjoint variables.
    values = {}
    partner = {0: 3, 1: 4, 3: 0, 4: 1}
    for i, g in enumerate(iter_germs):
        def call(g=g, i=i):
            values[i] = lp.iter_eval(g)
            return values[i]
        if i == 2:
            check = lambda out: O.require(out == values[0] * values[1],
                                          "iter_eval is not multiplicative on disjoint variables")
        else:
            check = lambda out, j=partner[i]: O.require(
                out == values[j], "iter_eval changed under a renaming of variables")
        add("iter_eval", call, check)


_ROUND = {"germ-queries": _germ_queries_round, "chen-shuffle": _chen_shuffle_round,
          "zeta-renorm": _zeta_renorm_round}
_PARSE = {"germ-queries": _parse_germ_queries, "chen-shuffle": _parse_chen_shuffle,
          "zeta-renorm": _parse_zeta_renorm}
_PLAN = {"germ-queries": _plan_germ_queries, "chen-shuffle": _plan_chen_shuffle,
         "zeta-renorm": _plan_zeta_renorm}


def generate(workload, seed, rounds):
    return [_ROUND[workload](O.seeded(workload, seed, r), r) for r in range(rounds)]


def parse(workload, inputs, lp):
    return [_PARSE[workload](rnd, lp) for rnd in inputs]


class Item:
    __slots__ = ("index", "kind", "call", "check")

    def __init__(self, index, kind, call, check):
        self.index, self.kind, self.call, self.check = index, kind, call, check


def plan(workload, seed, inputs, parsed, lp):
    """Items in run order, as one list per round.  Each check takes the
    item's output and may read outputs of other items of its round; its
    random points come from a generator of its own, so checking changes no
    input."""
    rounds = []
    count = 0

    def add(kind, call, check):
        nonlocal count
        rounds[-1].append(Item(count, kind, call, check))
        count += 1

    for r, (rnd, p) in enumerate(zip(inputs, parsed)):
        rounds.append([])
        _PLAN[workload](rnd, p, lp, O.seeded("check", workload, seed, r), add)
    return rounds
