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
dict in key order, so that order is not compared.  `FractionSpec._trusted`
may also take the spec's word, which the validating constructor does not:
the word a trusted spec hands out must be the one the reference rebuilds
from its exponents and letters, a tuple equal to it letter by letter in
value and type.
"""

from __future__ import annotations

import collections
from fractions import Fraction
from math import gcd

from linpole import (BudgetExceeded, FractionSpec, LinComb, LinearForm, Polynomial,
                     RationalGerm)
from linpole.exactlin import _int_row


def _fractions(values) -> bool:
    return all(type(c) is Fraction and c for c in values)


# class -> the shape its validating constructor guarantees, beyond what
# ==, hash, repr and key order compare
SHAPES = {
    LinearForm: lambda f: _fractions(f.coeffs.values())
    and f._integer_row() == _int_row(f.coeffs),
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
    result on the same arguments, on the terms of a Polynomial, or on the
    vectors of a FractionSpec without its word."""
    if cls is Polynomial:
        return Polynomial(obj.terms)
    return cls(*args[:3]) if cls is FractionSpec else cls(*args)


def _same_word(obj, ref) -> bool:
    """A spec's word is its rebuilt one; a set letter equals a frozenset, so
    the letter types are compared too."""
    if not isinstance(obj, FractionSpec):
        return True
    w, v = obj.word(), ref.word()
    return type(w) is tuple and w == v and list(map(type, w)) == list(map(type, v))


CHECKED: collections.Counter = collections.Counter()
MISMATCHES: list[str] = []
_ORIGINALS: dict = {}


def _hash(x):
    return hash(x) if type(x).__hash__ is not None else None


def _repr(x):
    """repr(x), or the BudgetExceeded that stops it: an int of more than
    LIMITS["integer digits"] digits is not printed, and then the trusted
    object and its reference must both refuse."""
    try:
        return repr(x)
    except BudgetExceeded as exc:
        return f"BudgetExceeded: {exc}"


def audited(cls):
    """cls._trusted, checked against cls(...) on every call."""
    trusted = _ORIGINALS.get(cls, cls.__dict__["_trusted"]).__get__(None, cls)
    shape = SHAPES[cls]

    def checked(*args):
        obj = trusted(*args)
        CHECKED[cls.__name__] += 1
        try:
            ref = reference(cls, obj, args)
        except (TypeError, ValueError, BudgetExceeded) as exc:  # what the constructors raise
            differ = [f"rejected by the validating constructor ({exc!r})"]
        else:
            differ = [name for name, same in (
                ("==", obj == ref),
                ("hash", _hash(obj) == _hash(ref)),
                ("repr", _repr(obj) == _repr(ref)),
                ("key order", cls is Polynomial
                 or list(getattr(obj, "coeffs", ())) == list(getattr(ref, "coeffs", ()))),
                ("value types", shape(obj)),
                ("word", _same_word(obj, ref)),
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
