"""JSON forms for the CLI; rationals are serialized as "p/q" strings."""

from __future__ import annotations

from decimal import Context
from fractions import Fraction

from .exactlin import LinearForm, Subspace
from .germs import Decomposition, RationalGerm
from .poly import Polynomial


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def form_to_json(f: LinearForm) -> dict:
    return {str(v): rational_str(c) for v, c in f.coeffs.items()}


def poly_to_json(p: Polynomial) -> list:
    return [{"exps": {str(v): e for v, e in mono}, "coeff": rational_str(c)}
            for mono, c in p.terms]


def _fraction_json(num: Polynomial, den) -> dict:
    return {"num": poly_to_json(num),
            "den": [{"form": form_to_json(f), "exp": e} for f, e in den]}


def germ_to_json(g: RationalGerm) -> dict:
    return _fraction_json(g.numerator, g.denominator)


def decomposition_to_json(d: Decomposition) -> dict:
    return {"terms": [_fraction_json(t.numerator, t.simplex.entries) for t in d.terms],
            "holo": poly_to_json(d.holomorphic)}


def subspace_to_json(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": [form_to_json(f) for f in s.basis]}


def eval_result_json(value, error_bound, evaluator: str) -> dict:
    if isinstance(value, Fraction) and error_bound == 0:
        val = rational_str(value)
    else:
        val = f"{float(value):.15g}"
    err = f"{float(error_bound):.3g}"
    if error_bound and err == "0":  # below the float range, from precision 308 on
        tiny = Context(prec=3).divide(error_bound.numerator, error_bound.denominator)
        err = f"{tiny.normalize():g}"
    return {"value": val, "error_bound": err, "evaluator": evaluator}
