"""The trusted-construction audit behind `pytest --audit-trusted`
(tests/trusted_audit.py): it covers every `_trusted` constructor, passes
canonical objects and catches a non-canonical one."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import linpole
import trusted_audit
from linpole import FractionSpec, LinComb, LinearForm, Polynomial, RationalGerm, chen_lmap


def test_audit_covers_every_trusted_constructor():
    modules = [importlib.import_module(f"linpole.{m.name}")
               for m in pkgutil.iter_modules(linpole.__path__)]
    twins = {obj for mod in modules for obj in vars(mod).values()
             if inspect.isclass(obj) and "_trusted" in vars(obj)}
    assert twins == set(trusted_audit.SHAPES)


def test_audit_passes_canonical_trusted_objects():
    one = Fraction(1)
    p = Polynomial({((1, 2),): one, (): Fraction(3, 2)})
    cases = [
        (LinearForm, ({1: one, 3: Fraction(-2)},)),
        (Polynomial, (dict(p.coeffs), p.den)),
        (RationalGerm, (Polynomial.constant(2), ((LinearForm({1: 1, 2: 1}), 2),))),
        (FractionSpec, ((2, 1), (1, 2), chen_lmap())),
        (LinComb, ({(1, 2): one},)),
    ]
    for cls, args in cases:
        obj = trusted_audit.audited(cls)(*args)
        assert obj == trusted_audit.reference(cls, obj, args)
    assert trusted_audit.audited(Polynomial)(dict(p.coeffs), p.den) == p


def test_audit_catches_a_non_canonical_trusted_form():
    seen = len(trusted_audit.MISMATCHES)
    try:
        with pytest.raises(AssertionError, match="hash, repr, key order, value types"):
            trusted_audit.audited(LinearForm)({2: 1, 1: 1})
        assert len(trusted_audit.MISMATCHES) == seen + 1
    finally:  # a deliberate mismatch must not fail an audited session
        del trusted_audit.MISMATCHES[seen:]


def test_audit_catches_a_non_canonical_trusted_polynomial():
    """A zero numerator, a negative denominator, and a packed monomial whose
    total-degree slot disagrees with its exponents."""
    seen = len(trusted_audit.MISMATCHES)
    z1, = Polynomial.variable(1).coeffs
    try:
        for args in (({0: 1, z1: 0}, 1), ({0: 1}, -2), ({z1 + 1: 1}, 1)):
            with pytest.raises(AssertionError, match="Polynomial._trusted"):
                trusted_audit.audited(Polynomial)(*args)
        assert len(trusted_audit.MISMATCHES) == seen + 3
    finally:
        del trusted_audit.MISMATCHES[seen:]
