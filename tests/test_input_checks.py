"""Input checks that no other test reaches: each raises its own exception
type, and on the command line each parse error exits 2."""

from fractions import Fraction

import pytest

from linpole import (EmptyWord, ForestNode, FractionSpec, GaloisTransform, InnerProduct,
                     LinearForm, LMap, NotLocal, PolarTerm, Polynomial, RationalGerm,
                     SimplexFraction, chen_lmap, integer_alphabet, locality_cfl,
                     locality_lyndon_generators, lyndon_rewrite, mzv_numeric, speer_lmap,
                     zvar)
from linpole.cli import main

z1, z2 = zvar(1), zvar(2)
chen = chen_lmap()
x = Polynomial.variable(1)


def _bad_lmap_form():
    return LMap(integer_alphabet(), lambda u: 1, "bad").form(1)


@pytest.mark.parametrize("call, exc", [
    (lambda: InnerProduct([[1, 0]]), ValueError),
    (lambda: LinearForm({0: 1}), ValueError),
    (lambda: LinearForm({1: 1.5}), TypeError),
    (lambda: RationalGerm(1, [(LinearForm(), 1)]), ValueError),
    (lambda: SimplexFraction([(z1, 0)]), ValueError),
    (lambda: SimplexFraction([(z1, 1), (z1, 2)]), ValueError),
    (lambda: SimplexFraction([(z1, 1), (z2, 1), (z1 + z2, 1)]), ValueError),
    (lambda: PolarTerm(Polynomial(), SimplexFraction([(z1, 1)])), ValueError),
    (lambda: Polynomial({((1, -1),): 1}), ValueError),
    (lambda: Polynomial.linear({0: 1}), ValueError),
    (lambda: x ** -1, ValueError),
    (lambda: x.divide_by_form(LinearForm()), ZeroDivisionError),
    (_bad_lmap_form, TypeError),
    (lambda: ForestNode([1], exponent=0), ValueError),
    (lambda: GaloisTransform({FractionSpec((1, 1), (1, 1), chen): 1}), NotLocal),
    (lambda: GaloisTransform({FractionSpec((), (), chen): 1}), ValueError),
    (lambda: GaloisTransform({FractionSpec((1, 1), (2, 1), chen): 1}), ValueError),
    (lambda: lyndon_rewrite((), integer_alphabet()), EmptyWord),
    (lambda: locality_cfl((2, 1, 2, 1), integer_alphabet()), NotLocal),
    (lambda: locality_lyndon_generators(integer_alphabet(), 0, letters=[1]), ValueError),
    (lambda: mzv_numeric([2.5], 5), TypeError),
    (lambda: mzv_numeric([2, True], 5), TypeError),
    (lambda: FractionSpec([2.7], [1], chen), TypeError),
    (lambda: FractionSpec([Fraction(2)], [1], chen), TypeError),
    (lambda: FractionSpec([1], [{1.5}], speer_lmap()), TypeError),
    (lambda: FractionSpec([1], [[2.9, 1]], speer_lmap()), TypeError),
], ids=["gram-not-square", "form-variable-0", "form-float-coefficient", "germ-zero-form",
        "simplex-exponent-0", "simplex-repeated-form", "simplex-dependent-forms",
        "polar-term-zero-numerator", "poly-negative-exponent", "poly-linear-variable-0",
        "poly-negative-power", "divide-by-zero-form", "lmap-assigns-no-form",
        "forest-exponent-0", "generator-not-local", "generator-empty",
        "generator-not-lyndon", "lyndon-rewrite-empty", "locality-cfl-repeated-factor", "generators-max-length-0", "mzv-float-exponent",
        "mzv-bool-exponent", "spec-float-exponent", "spec-fraction-exponent",
        "spec-float-set-member", "spec-float-in-set-list"])
def test_each_input_check_raises_its_type(call, exc):
    with pytest.raises(exc):
        call()


@pytest.mark.parametrize("argv, code", [
    (("decompose", "z1)"), 2),
    (("decompose", "z0"), 2),
    (("unphi", "g[2;1]"), 2),
    (("unphi", "f[a;1]"), 2), (("unphi", "f[2;x]"), 2), (("unphi", "f[2;{1,a}]"), 2),
    (("unphi", "f[2,;1]"), 2), (("unphi", "f[2;1,]"), 2), (("unphi", "f[2;,1]"), 2),
    (("unphi", "f[2;{1,}]"), 2), (("unphi", "f[2,1;1]"), 2), (("unphi", "f[2; 1 2]"), 2),
    (("unphi", "f[1_0;1]"), 2), (("eval", "--evaluator", "zeta", "f[2;1,]"), 2),
    (("unphi", "f[2;0]"), 1), (("unphi", "f[2;-1]"), 1), (("unphi", "f[1;{0}]"), 1),
    (("unphi", "f[-2;1]"), 1),
    (("unphi", "f[;]"), 0), (("unphi", "f[ 2 , 1 ; 1 , 2 ]"), 0),
    (("unphi", "f[ 1 ; { 1 , 2 } ]"), 0),
])
def test_each_cli_input_check_exits_with_its_code(capsys, argv, code):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert (out == "") == (code != 0)
    assert err.startswith({0: "", 1: "error: ", 2: "parse error: "}[code])
