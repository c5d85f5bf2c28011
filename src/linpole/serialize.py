"""JSON forms for the CLI; rationals are serialized as "p/q" strings."""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction

from .errors import _printable
from .exactlin import LinearForm, Subspace
from .germs import Decomposition, RationalGerm
from .poly import Polynomial


def rational_str(x: Fraction) -> str:
    return str(_printable(Fraction(x)))


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


def float_str(x, digits: int) -> str:
    """x to `digits` significant digits as a float prints it; a nonzero x
    beyond the float range goes through Decimal, not an OverflowError or 0,
    and so does one in the subnormal range, where a float keeps too few
    significant bits for the digits.

    Decimal's conversion of a huge integer is quadratic in its digits, so
    |x| is first written as (m + r) 10^s with m an integer of at least
    digits + 2 digits and 0 <= r < 1, s estimated from the bit lengths; a
    sticky last digit records whether r is 0, so the value rounds exactly
    as x does."""
    x = Fraction(x)
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if abs(f) >= sys.float_info.min or not x:
        return f"{f:.{digits}g}"
    wide = Context(prec=digits, Emin=MIN_EMIN, Emax=MAX_EMAX)
    n, d = abs(x.numerator), x.denominator
    s = math.floor((n.bit_length() - d.bit_length()) * math.log10(2)) - digits - 3
    m, rest = divmod(n, d * 10 ** s) if s >= 0 else divmod(n * 10 ** -s, d)
    sign = "-" if x < 0 else ""
    return f"{wide.normalize(wide.create_decimal(f'{sign}{10 * m + bool(rest)}E{s - 1}')):g}"


def eval_result_json(value, error_bound, evaluator: str) -> dict:
    exact = isinstance(value, Fraction) and error_bound == 0
    return {"value": rational_str(value) if exact else float_str(value, 15),
            "error_bound": float_str(error_bound, 3), "evaluator": evaluator}
