"""An audit of trusted construction, switched on by `pytest --audit-trusted`.

A `_trusted` classmethod wraps its arguments without the checks and the
normalisation of the validating constructor, so a non-canonical argument
gives an object that compares unequal or hashes differently, and no error.
With the audit on, every `_trusted` call also builds the same value through
the validating constructor and fails at once when the two differ in `==`,
`hash`, `repr`, the order of their keys or the types of their values.
`Polynomial._trusted` takes packed numerators over a denominator, which the
validating constructor does not read, so a trusted polynomial is compared
with the one that constructor rebuilds from its `terms`; nothing reads its
dict in key order, so that order is not compared.
"""

from __future__ import annotations

import collections
from fractions import Fraction
from math import gcd

from linpole import FractionSpec, LinComb, LinearForm, Polynomial, RationalGerm


def _fractions(values) -> bool:
    return all(type(c) is Fraction and c for c in values)


# class -> the shape its validating constructor guarantees, beyond what
# ==, hash, repr and key order compare
SHAPES = {
    LinearForm: lambda f: _fractions(f.coeffs.values()),
    Polynomial: lambda p: type(p.den) is int and p.den >= 1
    and all(type(m) is int for m in p.coeffs)
    and all(type(c) is int and c for c in p.coeffs.values())
    and gcd(p.den, *p.coeffs.values()) == 1,
    RationalGerm: lambda g: isinstance(g.numerator, Polynomial) and type(g.denominator) is tuple
    and all(type(e) is int for _, e in g.denominator),
    FractionSpec: lambda s: type(s.exponents) is tuple and type(s.letters) is tuple
    and all(type(e) is int for e in s.exponents)
    and all(type(u) in (int, frozenset) for u in s.letters),
    LinComb: lambda c: _fractions(c.coeffs.values()),
}



def reference(cls, obj, args):
    """What the trusted object must equal: the validating constructor's
    result on the same arguments, or on the terms of a Polynomial."""
    return Polynomial(obj.terms) if cls is Polynomial else cls(*args)


CHECKED: collections.Counter = collections.Counter()
MISMATCHES: list[str] = []
_ORIGINALS: dict = {}


def _hash(x):
    return hash(x) if type(x).__hash__ is not None else None


def _repr(x):
    """repr(x), or the ValueError that stops it: CPython 3.11 refuses to
    convert an int of more than 4300 digits to text, and then the trusted
    object and its reference must both refuse."""
    try:
        return repr(x)
    except ValueError as exc:
        return f"ValueError: {exc}"


def audited(cls):
    """cls._trusted, checked against cls(...) on every call."""
    trusted = _ORIGINALS.get(cls, cls.__dict__["_trusted"]).__get__(None, cls)
    shape = SHAPES[cls]

    def checked(*args):
        obj = trusted(*args)
        CHECKED[cls.__name__] += 1
        try:
            ref = reference(cls, obj, args)
        except (TypeError, ValueError) as exc:  # what the constructors raise
            differ = [f"rejected by the validating constructor ({exc!r})"]
        else:
            differ = [name for name, same in (
                ("==", obj == ref),
                ("hash", _hash(obj) == _hash(ref)),
                ("repr", _repr(obj) == _repr(ref)),
                ("key order", cls is Polynomial
                 or list(getattr(obj, "coeffs", ())) == list(getattr(ref, "coeffs", ()))),
                ("value types", shape(obj)),
            ) if not same]
        if differ:
            MISMATCHES.append(f"{cls.__name__}._trusted{args!r}: {', '.join(differ)}")
            raise AssertionError(f"non-canonical trusted construction: {MISMATCHES[-1]}")
        return obj

    return checked


def install() -> None:
    for cls in SHAPES:
        _ORIGINALS[cls] = cls.__dict__["_trusted"]
        cls._trusted = staticmethod(audited(cls))


def summary() -> str:
    kinds = ", ".join(f"{name} {n}" for name, n in sorted(CHECKED.items()))
    return (f"trusted audit: {sum(CHECKED.values())} trusted objects checked ({kinds}), "
            f"{len(MISMATCHES)} mismatches")
