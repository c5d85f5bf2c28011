"""Command-line front end.

One verb per operation: decompose, pi-plus, eval, residue, dep, orth, mul,
shuffle, lyndon, phi, unphi, expand, flatten, galois.  Exit codes: 0 success,
1 domain error or a failed galois check, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import serialize as ser
from .errors import LinpoleError, ParseError, _payload_shape
from .evaluators import (Evaluator, GaloisTransform, GermCombo, apply_transform,
                         check_factorization, compose_transforms,
                         galois_from_evaluator, invert_transform,
                         iter_evaluator, ms_evaluator, zeta_evaluator)
from .exactlin import DEFAULT_Q, load_inner_product
from .fracspec import (Forest, chen_lmap, expand_product, flatten_forest, forest_fraction,
                       phi, speer_lmap, weak_chen_lmap, word_of_fraction)
from .germs import (d_residue, decompose, dependence, germ_mul,
                    is_local_pair, locality_mul, p_residue, project_plus)
from .parser import _ENTRY_SEPARATOR, parse_germ, parse_spec, parse_spec_list, parse_word
from .poly import Polynomial
from .words import (X0, Alphabet, cfl, integer_alphabet, is_lyndon,
                    locality_lyndon_generators, lyndon_rewrite, shuffle,
                    subset_alphabet, word_str)

LMAPS = {"chen": chen_lmap, "weak-chen": weak_chen_lmap, "speer": speer_lmap}


def _read_payload(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return fh.read()
    return text


def _emit(args, text_repr: str, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        print(text_repr)


def _alphabet_for(letters) -> Alphabet:
    """The subset alphabet for set letters, the integer one otherwise; one
    word cannot mix the two, since no order compares them."""
    kinds = {isinstance(u, frozenset) for u in letters if u is not X0}
    if len(kinds) > 1:
        raise LinpoleError("integer letters and set letters cannot be mixed in one word")
    return subset_alphabet() if True in kinds else integer_alphabet()


def _evaluator(args) -> Evaluator:
    """The evaluator named by --evaluator, whose choices are these three."""
    if args.evaluator == "ms":
        return ms_evaluator(args.q)
    if args.evaluator == "iter":
        return iter_evaluator(perm_cap=args.perm_cap)
    return zeta_evaluator(precision=args.precision, q=args.q)


def _parse_combo(payload) -> GermCombo:
    """Combo JSON: {"terms": [{"holo": "<germ expr>", "specs": ["f[..]", ...]}]},
    as text or decoded.  A bare spec literal or a germ expression also works."""
    if not isinstance(payload, dict):
        payload = payload.strip()
        if payload.startswith("{"):
            payload = json.loads(payload)
    if isinstance(payload, dict):
        terms = []
        with _payload_shape("combo"):
            for t in payload["terms"]:
                holo, specs = t.get("holo", "1"), t.get("specs", [])
                if not (isinstance(holo, str) and isinstance(specs, list)
                        and all(isinstance(s, str) for s in specs)):
                    raise TypeError('"holo" must be a string and "specs" a list of strings')
                holo_germ = parse_germ(holo)
                if not holo_germ.is_holomorphic():
                    raise LinpoleError("combo coefficient must be holomorphic")
                specs = tuple(parse_spec(s) for s in specs)
                terms.append((holo_germ.numerator, specs))
        return GermCombo(terms)
    if payload.startswith("f["):
        return GermCombo([(Polynomial.constant(1), (parse_spec(payload),))])
    g = parse_germ(payload)
    if not g.is_holomorphic():
        raise LinpoleError(
            "eval with this evaluator needs a holomorphic expression, a spec "
            "literal f[...], or a combo JSON payload")
    return GermCombo([(g.numerator, ())])


def _parse_transform(payload: str) -> GaloisTransform:
    """Transform JSON; GaloisTransform reads each value, so a float is refused."""
    data = json.loads(payload)
    with _payload_shape("transform"):
        return GaloisTransform({parse_spec(t["spec"]): t["value"] for t in data["shifts"]})


def _transform_json(t: GaloisTransform) -> dict:
    return {"shifts": [{"spec": repr(s), "value": ser.rational_str(c)}
                       for s, c in sorted(t.shifts.items(), key=lambda kv: repr(kv[0]))]}


def _combo_json(c: GermCombo) -> dict:
    return {"terms": [{"holo": repr(h), "specs": [repr(s) for s in specs]}
                      for h, specs in c.terms]}


def _spec_terms(combo) -> tuple[str, list[dict]]:
    """A list of (spec, coeff) pairs, sorted by spec text, as text and as
    JSON terms."""
    combo = sorted(combo, key=lambda t: repr(t[0]))
    return (" + ".join(f"{c}*{s!r}" for s, c in combo),
            [{"spec": repr(s), "coeff": ser.rational_str(c)} for s, c in combo])


def cmd_decompose(args):
    g = parse_germ(_read_payload(args.expr))
    d = decompose(g, args.q)
    _emit(args, repr(d), ser.decomposition_to_json(d))


def cmd_pi_plus(args):
    g = parse_germ(_read_payload(args.expr))
    h = project_plus(g, args.q)
    _emit(args, repr(h), ser.poly_to_json(h))


def cmd_eval(args):
    payload = _read_payload(args.expr).strip()
    ev = _evaluator(args)
    if ev.name == "zeta" or payload.startswith(("{", "f[")):
        value, err = ev.eval_combo(_parse_combo(payload))
    else:
        value, err = ev.eval_germ(parse_germ(payload))
    out = ser.eval_result_json(value, err, ev.name)
    _emit(args, out["value"] if err == 0 else f"{out['value']} (err<={out['error_bound']})",
          out)


def cmd_residue(args):
    g = parse_germ(_read_payload(args.expr))
    d = p_residue(g, args.q) if args.kind == "p" else d_residue(g, args.q)
    _emit(args, repr(d), ser.decomposition_to_json(d))


def cmd_dep(args):
    g = parse_germ(_read_payload(args.expr))
    s = dependence(g, args.q)
    _emit(args, repr(s), ser.subspace_to_json(s))


def cmd_orth(args):
    f = parse_germ(_read_payload(args.expr))
    g = parse_germ(_read_payload(args.expr2))
    ok = is_local_pair(f, g, args.q)
    _emit(args, "true" if ok else "false", {"orthogonal": ok})


def cmd_mul(args):
    f = parse_germ(_read_payload(args.expr))
    g = parse_germ(_read_payload(args.expr2))
    out = locality_mul(f, g, args.q) if args.locality == "strict" else germ_mul(f, g)
    _emit(args, repr(out), ser.germ_to_json(out))


def cmd_shuffle(args):
    w, v = parse_word(args.word), parse_word(args.word2)
    sp = shuffle(w, v)
    items = sorted(sp.items(), key=lambda t: word_str(t[0]))
    _emit(args, " + ".join(f"{c}*{word_str(u)}" for u, c in items),
          [{"word": word_str(u), "coeff": ser.rational_str(c)} for u, c in items])


def cmd_lyndon(args):
    if args.action == "generators":
        flat = list(parse_word(_ENTRY_SEPARATOR.sub("", args.word)))
        alpha = _alphabet_for(flat)
        gens = locality_lyndon_generators(alpha, args.max_length, letters=flat)
        _emit(args, "\n".join(word_str(w) for w in gens),
              [word_str(w) for w in gens])
        return
    w = parse_word(args.word)
    alpha = _alphabet_for(w)
    if args.action == "factor":
        factors = cfl(w, alpha)
        _emit(args, " ".join(f"({word_str(f)})^{m}" for f, m in factors),
              [{"factor": word_str(f), "multiplicity": m} for f, m in factors])
    elif args.action == "rewrite":
        lp = lyndon_rewrite(w, alpha)
        items = sorted(lp.items(), key=lambda t: [word_str(x) for x in t[0]])
        _emit(args, " + ".join(
            f"{c}*" + ("*".join(f"[{word_str(x)}]" for x in m) or "1") for m, c in items),
            [{"monomial": [word_str(x) for x in m], "coeff": ser.rational_str(c)}
             for m, c in items])
    else:
        _emit(args, str(is_lyndon(w, alpha)).lower(), {"lyndon": is_lyndon(w, alpha)})


def cmd_phi(args):
    w = parse_word(args.word)
    lmap = LMAPS[args.lmap]()
    g = phi(w, lmap)
    _emit(args, repr(g), ser.germ_to_json(g))


def cmd_unphi(args):
    spec = parse_spec(args.spec)
    w = word_of_fraction(spec)
    _emit(args, word_str(w), {"word": word_str(w)})


def cmd_expand(args):
    a, b = parse_spec(args.spec), parse_spec(args.spec2)
    _emit(args, *_spec_terms(expand_product(a, b)))


def cmd_flatten(args):
    forest = Forest.from_json(json.loads(_read_payload(args.forest)))
    text, terms = _spec_terms(flatten_forest(forest))
    germ = forest_fraction(forest)
    _emit(args, f"{text}\n= {germ!r}",
          {"fraction": ser.germ_to_json(germ), "terms": terms})


def cmd_galois(args):
    if args.action == "derive":
        ev = _evaluator(args)
        gens = parse_spec_list(args.generators)
        t = galois_from_evaluator(ev, gens)
        _emit(args, repr(t), _transform_json(t))
    elif args.action == "apply":
        t = _parse_transform(_read_payload(args.transform))
        combo = _parse_combo(_read_payload(args.combo))
        out = apply_transform(t, combo, args.q)
        _emit(args, repr(out), _combo_json(out))
    elif args.action == "compose":
        t1 = _parse_transform(_read_payload(args.transform))
        t2 = _parse_transform(_read_payload(args.transform2))
        t = compose_transforms(t1, t2)
        _emit(args, repr(t), _transform_json(t))
    elif args.action == "invert":
        t = _parse_transform(_read_payload(args.transform))
        out = invert_transform(t)
        _emit(args, repr(out), _transform_json(out))
    else:  # check
        ev = _evaluator(args)
        with _payload_shape("combos"):
            combos = [_parse_combo(entry) for entry in json.loads(_read_payload(args.combos))]
        gens = parse_spec_list(args.generators)
        t = galois_from_evaluator(ev, gens)
        tol = Fraction(args.tol) if args.tol else Fraction(0)
        report = check_factorization(ev, t, combos, tol, args.q)
        _emit(args, repr(report) + f"\nall: {'PASS' if report.all_ok else 'FAIL'}",
              {"all_ok": report.all_ok,
               "entries": [{"combo": name, "ms_of_transformed": ser.rational_str(l),
                            "evaluator_value": ser.rational_str(r),
                            "diff": ser.float_str(d, 3), "ok": ok}
                           for name, l, r, d, ok in report.entries]})
        return 0 if report.all_ok else 1


# Minus signs, then what may follow a unary minus in a germ expression.
_NEGATED_EXPRESSION = re.compile(r"-+[\sz\d(]")


class _VerbParser(argparse.ArgumentParser):
    """The parser of one verb.  With expressions=True its positionals are
    germ expressions, so a token such as -z1 or -(z1+z2) is read as one
    rather than as an unknown option; options still parse in any position."""

    def __init__(self, *args, expressions: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.expressions = expressions

    def _parse_optional(self, arg_string):  # argparse's token classifier: None is a positional
        if self.expressions and _NEGATED_EXPRESSION.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linpole",
        description="exact calculus of meromorphic germs with linear poles")
    ap.add_argument("--gram", metavar="FILE",
                    help="inner-product config JSON {\"gram\": [[...]]}")
    ap.add_argument("--precision", type=int, default=8,
                    help="decimal digits for numeric evaluators")
    ap.add_argument("--perm-cap", type=int, default=8, dest="perm_cap",
                    help="max variables for the iterated evaluator")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_VerbParser)

    p = sub.add_parser("decompose", help="canonical polar decomposition", expressions=True)
    p.add_argument("expr")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pi-plus", help="holomorphic part of the decomposition", expressions=True)
    p.add_argument("expr")
    p.set_defaults(func=cmd_pi_plus)

    p = sub.add_parser("eval", help="run an evaluator", expressions=True)
    p.add_argument("--evaluator", choices=("ms", "iter", "zeta"), required=True)
    p.add_argument("expr", help="germ expression, spec literal, combo JSON, @file or -")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("residue", help="p- or d-residue", expressions=True)
    p.add_argument("--kind", choices=("p", "d"), default="p")
    p.add_argument("expr")
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("dep", help="dependence subspace", expressions=True)
    p.add_argument("expr")
    p.set_defaults(func=cmd_dep)

    p = sub.add_parser("orth", help="locality check for two germs", expressions=True)
    p.add_argument("expr")
    p.add_argument("expr2")
    p.set_defaults(func=cmd_orth)

    p = sub.add_parser("mul", help="product of germs", expressions=True)
    p.add_argument("--locality", choices=("strict", "raw"), default="strict")
    p.add_argument("expr")
    p.add_argument("expr2")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("shuffle", help="shuffle product of two words")
    p.add_argument("word")
    p.add_argument("word2")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("lyndon", help="Lyndon factorisation/rewriting/generators")
    p.add_argument("action", choices=("factor", "rewrite", "test", "generators"))
    p.add_argument("word", help="word literal; for generators: comma-separated letters")
    p.add_argument("--max-length", type=int, default=3, dest="max_length")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("phi", help="word to ordered fraction")
    p.add_argument("--lmap", choices=tuple(LMAPS), default="chen")
    p.add_argument("word")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("unphi", help="ordered fraction to word")
    p.add_argument("spec")
    p.set_defaults(func=cmd_unphi)

    p = sub.add_parser("expand", help="product of two fraction specs")
    p.add_argument("spec")
    p.add_argument("spec2")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("flatten", help="forest fraction to ordered fractions")
    p.add_argument("forest", help="forest JSON, @file or -")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("galois", help="derive/apply/compose/invert/check transforms")
    p.add_argument("action", choices=("derive", "apply", "compose", "invert", "check"))
    p.add_argument("--evaluator", choices=("ms", "iter", "zeta"), default="ms")
    p.add_argument("--generators", default="", help="semicolon-separated spec literals")
    p.add_argument("--transform", default="", help="transform JSON, @file or -")
    p.add_argument("--transform2", default="")
    p.add_argument("--combo", default="")
    p.add_argument("--combos", default="", help="JSON list of combos")
    p.add_argument("--tol", default="")
    p.set_defaults(func=cmd_galois)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.q = load_inner_product(args.gram) if args.gram else DEFAULT_Q
        return args.func(args) or 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (LinpoleError, ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
