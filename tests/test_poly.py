import random
from fractions import Fraction

from hypothesis import given, strategies as st

from linpole import LinearForm, Polynomial, span, zvar

from helpers import random_form, random_poly

x, y, z = Polynomial.variable(1), Polynomial.variable(2), Polynomial.variable(3)


def test_arith_basics():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (p - p) == Polynomial()
    assert Polynomial.constant(Fraction(3, 4)).constant_term() == Fraction(3, 4)


def test_canonical_equality():
    a = Polynomial({((1, 1), (2, 1)): 2, ((1, 2),): 1})
    b = (x * y) * 2 + x * x
    assert a == b and hash(a) == hash(b)


def test_evaluate_and_partial():
    p = x * x * y + 3 * z
    assert p.evaluate({1: 2, 2: 3, 3: 1}) == 15
    assert p.partial(1) == 2 * x * y
    assert p.partial(3) == Polynomial.constant(3)
    assert p.partial(4) == Polynomial()


def test_substitute_and_rename():
    p = x * x + y
    assert p.substitute({1: y}) == y * y + y
    assert p.rename({1: 2, 2: 1}) == y * y + x


def test_divide_by_form():
    f = LinearForm({1: 1, 2: 1})
    p = (x + y) * (x * x + 3)
    q = p.divide_by_form(f)
    assert q == x * x + 3
    assert (x * x + 1).divide_by_form(f) is None


def test_divide_random_products():
    rng = random.Random(3)
    for _ in range(50):
        form = random_form(rng, max_var=3)
        p = random_poly(rng, max_var=3)
        prod = p * Polynomial.from_linear(form)
        assert prod.divide_by_form(form) == p


def test_collect_reassembles():
    rng = random.Random(4)
    for _ in range(40):
        p = random_poly(rng, max_var=3, max_deg=3, n_terms=5)
        v = rng.randint(1, 4)
        parts = p.collect(v)
        assert all(v not in part.support() and part for part in parts.values())
        total = Polynomial()
        for k, part in parts.items():
            total = total + part * Polynomial.variable(v) ** k
        assert total == p
    assert (x * x * y + 3 * z).collect(1) == {0: 3 * z, 2: y}
    assert Polynomial().collect(1) == {}


def test_dependence_space_examples():
    p = Polynomial.from_linear(LinearForm({1: 1, 2: 1})) ** 2 + z
    assert p.dependence_space() == span([zvar(1) + zvar(2), zvar(3)])
    assert (x * x).dependence_space() == span([zvar(1)])
    assert Polynomial.constant(5).dependence_space().dim == 0
    assert Polynomial().dependence_space().dim == 0


def test_dependence_space_is_minimal():
    # product of two aligned forms depends on one direction only
    f = Polynomial.from_linear(LinearForm({1: 1, 2: -1}))
    p = f * f + f
    assert p.dependence_space() == span([zvar(1) - zvar(2)])


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3))
def test_power_matches_repeated_multiplication(a, b, k):
    p = Polynomial.constant(a) + Polynomial.variable(1) * b
    expected = Polynomial.constant(1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected
