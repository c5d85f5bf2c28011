import decimal
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from linpole import (BudgetExceeded, LinearForm, NonHomogeneousPole, ParseError, Polynomial,
                     RationalGerm, X0, locality_lyndon_generators, parse_germ,
                     parse_spec, parse_word, subset_alphabet, word_str, zvar)
from linpole import exactlin
from linpole.cli import main
from linpole.errors import LIMITS
from linpole.parser import parse_spec_list
from linpole.serialize import float_str

import parser_oracle
from helpers import chain_forest, random_germ

z1, z2 = zvar(1), zvar(2)


def test_parse_germ_examples():
    assert parse_germ("1/(z1*(z1+z2))") == RationalGerm(1, [(z1, 1), (z1 + z2, 1)])
    gt = parse_germ("((z1-z2)/(z1+z2))^2")
    assert gt == RationalGerm(
        (Polynomial.variable(1) - Polynomial.variable(2)) ** 2, [(z1 + z2, 2)])
    with pytest.raises(NonHomogeneousPole):
        parse_germ("1/(1+z1)")


def test_parse_germ_more_shapes():
    assert parse_germ("3/4") == RationalGerm(Fraction(3, 4))
    assert parse_germ("-z1^2*z2 + 1/2") == RationalGerm(
        Polynomial.constant(Fraction(1, 2))
        - Polynomial.variable(1) ** 2 * Polynomial.variable(2))
    assert parse_germ("1/z1/z2") == RationalGerm(1, [(z1, 1), (z2, 1)])
    assert parse_germ("z2/(2*z1+2*z2)") == RationalGerm(
        Polynomial.variable(2) * Fraction(1, 2), [(z1 + z2, 1)])
    assert parse_germ("(z1+z2)^2/(z1+z2)") == RationalGerm(
        Polynomial.from_linear(z1 + z2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_germ("z1+*")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_germ("q1+z2")
    with pytest.raises(NonHomogeneousPole):
        parse_germ("1/(z1*z1+z2)")


def test_trailing_whitespace_ends_the_input():
    for text in ("z1 ", " z1 ", "z1\n", "z1 \t\n", "( z1 + z2 ) ^ 2 "):
        assert parse_germ(text) == parse_germ(text.replace(" ", "").strip())
    for text, position in (("", 0), ("   ", 3), ("z1+", 3), ("z1+ ", 4), ("(z1 ", 4)):
        with pytest.raises(ParseError) as exc:
            parse_germ(text)
        assert exc.value.position == position


def test_divide_by_nested_quotient():
    assert parse_germ("1/(1/z1)") == RationalGerm(Polynomial.variable(1))
    assert parse_germ("z1/(z1/z2)") == RationalGerm(Polynomial.variable(2))


def test_render_roundtrip_corpus():
    rng = random.Random(100)
    for _ in range(200):
        g = random_germ(rng)
        assert parse_germ(repr(g)) == g


# ------------------------------------------ parser against the eager oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _linear_text(rng):
    parts = [f"{rng.randint(-2, 2)}*z{v}" for v in rng.sample((1, 2, 3), rng.randint(1, 3))]
    if rng.random() < 0.1:
        parts.append(str(rng.randint(0, 2)))  # an affine factor
    return "(" + " + ".join(parts) + ")"


def _divisor_text(rng, depth):
    if rng.random() < 0.15:
        return f"({_expr_text(rng, depth)})"
    factors = [f"{_linear_text(rng)}^{rng.randint(0, 3)}" for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        factors.append(str(rng.randint(0, 3)))
    return "(" + "*".join(factors) + ")"


def _expr_text(rng, depth):
    kind = rng.choice((0, 1, 2, 3, 4, 4, 5, 6)) if depth else 0
    if kind == 0:
        return rng.choice((str(rng.randint(0, 3)), f"z{rng.randint(1, 3)}"))
    if kind == 1:
        return _linear_text(rng)
    if kind == 2:
        return f"{_expr_text(rng, depth - 1)} {rng.choice('+-')} {_expr_text(rng, depth - 1)}"
    if kind == 3:
        return f"({_expr_text(rng, depth - 1)})*{_expr_text(rng, depth - 1)}"
    if kind == 4:
        return f"({_expr_text(rng, depth - 1)})/{_divisor_text(rng, depth - 1)}"
    if kind == 5:
        return f"({_expr_text(rng, depth - 1)})^{rng.randint(0, 3)}"
    return f"-{_expr_text(rng, depth - 1)}"


def _outcome(parse, text):
    try:
        g = parse(text)
    except Exception as exc:  # the exception type is the outcome
        return type(exc), None
    return g, repr(g)


def _assert_same_as_oracle(texts):
    rejected = 0
    for text in texts:
        got, want = _outcome(parse_germ, text), _outcome(parser_oracle.parse_germ, text)
        assert got == want, text
        rejected += want[1] is None
    return rejected


def test_parser_matches_eager_oracle_on_random_expressions():
    rng = random.Random(1405)
    texts = [_expr_text(rng, 3) for _ in range(2400)]
    rejected = _assert_same_as_oracle(texts)
    assert 100 < rejected < len(texts) - 1000  # both outcomes well represented


def test_parser_matches_eager_oracle_on_benchmark_germs():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    texts = [g[key] for rnd in workloads.generate("germ-queries", 5, 60)
             for g in rnd["germs"] for key in ("text", "alt", "partner_text")]
    texts += [t for rnd in workloads.generate("zeta-renorm", 5, 30) for t in rnd["iter_texts"]]
    assert _assert_same_as_oracle(texts) == 0


def test_parser_rejects_like_eager_oracle():
    texts = ["1/(1+z1)", "1/(z1^2-z2^2)", "1/(0*(z1+1))", "1/(z1-z1)", "0/z1",
             "1/(1/z1)", "1/((z1+1)^0)", "1/(0*z1)", "1/(z1*(z1+1))", "1/(z1/z2 + 1)",
             "(z1+1)/(z1+1)", "1/((z1+z2)/(z1+z2))", "1/0", "z1/(2*z1+2*z2)^0"]
    _assert_same_as_oracle(texts)
    with pytest.raises(NonHomogeneousPole):
        parse_germ("1/(0*(z1+1))")  # the affine factor is named before the zero
    with pytest.raises(ZeroDivisionError):
        parse_germ("1/(z1-z1)")


@pytest.mark.parametrize("text, want", [
    ("1/((z1+z2+z3+z4)^30*(z1-z2)^10)",
     RationalGerm(1, [(LinearForm({1: 1, 2: 1, 3: 1, 4: 1}), 30), (z1 - z2, 10)])),
    ("(z1+z2)^300/(z1+z2)^300", RationalGerm(1)),
])
def test_parser_never_expands_a_divisor(text, want):
    start = time.perf_counter()
    assert parse_germ(text) == want
    assert time.perf_counter() - start < 0.5


def test_a_sum_keeps_the_variable_limit():
    """A sum of terms c*L adds up one LinearForm, which has no variable
    limit; it still refuses a variable past the polynomial packing limit, as
    the polynomial of the term would."""
    with pytest.raises(BudgetExceeded) as exc:
        parse_germ("1/(z1+z1025)")
    assert str(exc.value) == "variable index 1025 exceeds the limit 1024"
    assert parse_germ("1/z1025") == RationalGerm(1, [(zvar(1025), 1)])


def test_a_parse_normalises_one_germ(monkeypatch):
    """Parsing the benchmark germs runs RationalGerm.__init__ once per text,
    for the result: sums of linear and of pole-free terms build no germ.
    With pytest --audit-trusted, a trusted germ is also rebuilt through
    __init__; that rebuild is not counted."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    texts = [g[key] for rnd in workloads.generate("germ-queries", 5, 60)
             for g in rnd["germs"] for key in ("text", "alt", "partner_text")]
    built = in_trusted = 0
    init, trusted = RationalGerm.__init__, RationalGerm._trusted

    def counting_init(self, *args):
        nonlocal built
        built += not in_trusted
        init(self, *args)

    def counting_trusted(*args):
        nonlocal in_trusted
        in_trusted += 1
        try:
            return trusted(*args)
        finally:
            in_trusted -= 1

    monkeypatch.setattr(RationalGerm, "__init__", counting_init)
    monkeypatch.setattr(RationalGerm, "_trusted", staticmethod(counting_trusted))
    for text in texts:
        parse_germ(text)
    assert (len(texts), built) == (720, 720)


def test_constant_powers_are_sized_before_they_are_computed():
    assert parse_germ("2^4194304/2^4194303") == RationalGerm(2)  # at the limit
    assert parse_germ("1^99999999999999999999 - (-1)^99999999999999999999") == RationalGerm(2)
    start = time.perf_counter()
    for text in ("2^4194305", "(1/2)^4194305", "3^999999999", "(3*z1)^99999999/z1^99999999"):
        with pytest.raises(BudgetExceeded) as exc:
            parse_germ(text)
        assert str(exc.value).endswith("exceeds the limit 4194304")
    assert time.perf_counter() - start < 1


def test_constant_products_are_sized_before_they_are_computed():
    """A product's constant is sized by log2, as a power's is: the bit
    lengths of its factors, each less one."""
    assert parse_germ("2^4194303*2") == RationalGerm(Polynomial.constant(2 ** 4194304))
    assert parse_germ("2^4194304*z1/z1") == RationalGerm(Polynomial.constant(2 ** 4194304))
    assert parse_germ("10^1000000").numerator.constant_term() == 10 ** 1000000
    start = time.perf_counter()
    for text in ("2^4194304*2", "(1/2)^4194304/2", "3^2600000*3^2600000*3^2600000"):
        with pytest.raises(BudgetExceeded) as exc:
            parse_germ(text)
        assert str(exc.value).startswith("constant product bits ")
    assert time.perf_counter() - start < 2


def test_integers_are_read_and_printed_within_the_digits_limit(capsys):
    """An integer literal is read, and a value is printed, with at most
    LIMITS["integer digits"] digits; an inexact value prints its float form."""
    top = "9" * LIMITS["integer digits"]
    assert run_cli(capsys, "decompose", top) == (0, top + "\n", "")
    assert run_cli(capsys, "decompose", f"-{top}-1") == (
        1, "", "error: printed integer digits 4301 exceeds the limit 4300\n")
    for argv in (("decompose", "1" + "0" * 4300), ("shuffle", "x1" + "0" * 4300, "x2"),
                 ("expand", f"f[1{'0' * 4300};1]", "f[1;2]"),
                 ("flatten", '{"nodes":[{"set":[1],"exp":1' + "0" * 4300 + "}]}")):
        assert run_cli(capsys, *argv) == (
            1, "", "error: integer literal digits 4301 exceeds the limit 4300\n")
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "eval", "--evaluator", "ms", "10^4300")
        assert (code, out) == (1, "") and err.startswith("error: printed integer digits 4301 ")
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta",
                             '{"terms":[{"holo":"10^5000","specs":["f[2;1]"]}]}')
    assert (code, err) == (0, "") and out == "1.64493406684937e+5000 (err<=1.16e+4988)\n"


def test_parse_word_literals():
    assert parse_word("x0x1x0x2") == (X0, 1, X0, 2)
    assert parse_word("x{1,3}x0") == (frozenset({1, 3}), X0)
    assert parse_word("1") == ()
    with pytest.raises(ParseError):
        parse_word("x0y1")


def test_parse_spec_literals():
    s = parse_spec("f[2,1;1,2]")
    assert s.exponents == (2, 1) and s.letters == (1, 2)
    s2 = parse_spec("f[1,2;{1},{2,3}]")
    assert s2.letters == (frozenset({1}), frozenset({2, 3}))
    assert s2.lmap.name == "speer"
    assert parse_spec("f[;]").depth == 0


# ------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "z2/(z1+z2)")
    assert code == 0
    assert "1/2" in out

    code, out, _ = run_cli(capsys, "--format", "json", "decompose", "z2/(z1+z2)")
    data = json.loads(out)
    assert data["holo"] == [{"exps": {}, "coeff": "1/2"}]


def test_cli_eval_iter(capsys):
    code, out, _ = run_cli(capsys, "eval", "--evaluator", "iter",
                           "((z1-z2)/(z1+z2))^2")
    assert code == 0 and out.strip() == "1"


def test_cli_eval_iter_nested_sum_in_seven_variables(capsys):
    # (z1-z7)^2/(z1 (z1+z2) ... (z1+...+z7)): one block of seven variables
    den = "*".join("(" + "+".join(f"z{j}" for j in range(1, i + 1)) + ")"
                  for i in range(1, 8))
    code, out, _ = run_cli(capsys, "--perm-cap", "12", "eval", "--evaluator", "iter",
                           f"(z1-z7)^2/({den})")
    assert code == 0 and out.strip() == "0"


def test_cli_eval_ms_and_zeta(capsys):
    code, out, _ = run_cli(capsys, "eval", "--evaluator", "ms", "z2/(z1+z2)")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "--format", "json", "eval", "--evaluator",
                           "zeta", "f[2;1]")
    data = json.loads(out)
    assert data["evaluator"] == "zeta"
    assert abs(float(data["value"]) - 1.6449340668) < 1e-8
    # a pole needs an explicit Chen presentation; a holomorphic germ gives its value at 0
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta", "1/z1")
    assert code == 1 and out == ""
    assert err == ("error: eval with this evaluator needs a holomorphic expression, "
                   "a spec literal f[...], or a combo JSON payload\n")
    code, out, _ = run_cli(capsys, "eval", "--evaluator", "zeta", "3+z1")
    assert code == 0 and out.strip() == "3"


def test_cli_dep_example(capsys):
    expr = ("1/(z1*(z1+z2)) + 1/(z2*(z1+z2)) - 2/(z1*(z1+2*z2)) "
            "- 1/(z2*(z1+2*z2)) + 1/z3")
    code, out, _ = run_cli(capsys, "dep", expr)
    assert code == 0 and out.strip() == "span[z3]"


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "decompose", "z1+*")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "eval", "--evaluator", "ms", "1/(1+z1)")
    assert code == 1
    code, _, err = run_cli(capsys, "mul", "--locality", "strict", "1/z1", "1/z1")
    assert code == 1
    code, out, _ = run_cli(capsys, "mul", "--locality", "raw", "1/z1", "1/z1")
    assert code == 0 and "z1" in out


@pytest.mark.parametrize("argv, position", [
    (("eval", "--evaluator", "ms", "f[1,1;{},{1}]"), 6), (("unphi", "f[2;{}]"), 4),
    (("eval", "--evaluator", "ms", "f[2;{ }]"), 4)])
def test_cli_empty_set_letter_is_a_parse_error(capsys, argv, position):
    """The empty set is no letter of the Speer alphabet, as x{} is no word
    letter."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: empty set letter (at position {position})\n"


@pytest.mark.parametrize("argv, message", [
    (("decompose", "z\u0661+z\u0662"), "unexpected character '\u0661' (at position 1)"),
    (("shuffle", "x\u0661", "x2"), "bad word literal (at position 1)"),
    (("expand", "f[\u0662;1]", "f[1;2]"), "expected an integer, got '\u0662' (at position 2)"),
], ids=["germ", "word", "spec"])
def test_cli_digits_are_ascii(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_cli_degree_beyond_the_packing_limit_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "decompose", "z1^100000/(z1+z2)")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "error: total degree 100000 exceeds the limit 65535\n"


@pytest.mark.parametrize("expr", ["z1 ", " z1 "])
def test_cli_accepts_surrounding_whitespace(capsys, expr):
    code, out, err = run_cli(capsys, "decompose", expr)
    assert (code, out, err) == (0, "z1\n", "")


@pytest.mark.parametrize("argv, position", [
    (("decompose", "   "), 3), (("decompose", ""), 0), (("decompose", "z1+"), 3),
    (("eval", "--evaluator", "ms", ""), 0)])
def test_cli_end_of_input_is_a_parse_error(capsys, argv, position):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: unexpected end of input (at position {position})\n"


def test_cli_deep_nesting_is_a_parse_error(capsys):
    for expr in ("(" * 3000 + "z1" + ")" * 3000, "-(" * 1500 + "1" + ")" * 1500):
        code, out, err = run_cli(capsys, "decompose", "--", expr)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("parse error:")
    code, out, _ = run_cli(capsys, "decompose", "--", "-(" * 100 + "z1" + ")" * 100)
    assert code == 0 and out.strip() == "z1"
    code, out, _ = run_cli(capsys, "decompose", "--", "-" * 3001 + "z1")
    assert code == 0 and out.strip() == "-z1"


def test_cli_orth(capsys):
    code, out, _ = run_cli(capsys, "orth", "1/(z1+z2)", "z1-z2")
    assert code == 0 and out.strip() == "true"


def test_cli_shuffle_lyndon_phi(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "x0x1", "x0x2")
    assert code == 0 and "2*x0x0x1x2" in out
    code, out, _ = run_cli(capsys, "lyndon", "factor", "x1x0x1")
    assert code == 0 and out.strip() == "(x1)^1 (x0x1)^1"
    code, out, _ = run_cli(capsys, "lyndon", "generators", "x1,x2",
                           "--max-length", "2")
    assert code == 0
    assert out.split() == ["x1", "x2", "x0x1", "x0x2", "x1x2"]
    code, out, _ = run_cli(capsys, "lyndon", "generators", "x2,x1,x2",
                           "--max-length", "2")
    assert code == 0 and out.split() == ["x1", "x2", "x0x1", "x0x2", "x1x2"]
    code, out, _ = run_cli(capsys, "lyndon", "generators", "x0,x1",
                           "--max-length", "3")
    assert code == 0 and out.split() == ["x1", "x0x1", "x0x0x1"]
    code, out, _ = run_cli(capsys, "phi", "x0x1")
    assert code == 0 and "z1" in out
    code, out, _ = run_cli(capsys, "unphi", "f[2;1]")
    assert code == 0 and out.strip() == "x0x1"
    code, out, _ = run_cli(capsys, "expand", "f[2;1]", "f[2;2]")
    assert code == 0 and "2*f[3,1;1,2]" in out


def test_cli_lyndon_generators_keeps_set_letters_whole(capsys):
    """Only the commas between letters separate them: x{1,2} stays one letter."""
    want = locality_lyndon_generators(subset_alphabet(), 2,
                                      [frozenset({1, 2}), frozenset({3})])
    assert [word_str(w) for w in want] == ["x{1,2}", "x{3}", "x0x{1,2}",
                                           "x0x{3}", "x{1,2}x{3}"]
    code, out, _ = run_cli(capsys, "lyndon", "generators", "x{1,2},x{3}",
                           "--max-length", "2")
    assert code == 0 and out.split() == [word_str(w) for w in want]
    code, out, _ = run_cli(capsys, "--format", "json", "lyndon", "generators",
                           "x{3},x{1,2}", "--max-length", "2")
    assert code == 0 and json.loads(out) == [word_str(w) for w in want]


@pytest.mark.parametrize("argv", [
    ("lyndon", "factor", "x1x{2}"),
    ("lyndon", "rewrite", "x{1}x2"),
    ("lyndon", "test", "x1x{2}"),
    ("lyndon", "generators", "x1,x{2}"),
])
def test_cli_lyndon_rejects_mixed_letter_kinds(capsys, argv):
    """No order compares an integer letter with a set letter."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: integer letters and set letters cannot be mixed in one word\n"


def test_cli_shuffle_mixes_letter_kinds(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "x1", "x{2}")
    assert code == 0 and out.strip() == "1*x1x{2} + 1*x{2}x1"


@pytest.mark.parametrize("argv, want", [
    (("flatten", '{"nodes":[{"set":[1],"exp":2},'
                 '{"set":[2,3],"exp":2,"children":[{"set":[3]}]}]}'),
     [("f[2,1,2;{2},{3},{1}]", "1"), ("f[2,2,1;{1},{2},{3}]", "1"),
      ("f[2,2,1;{2},{1},{3}]", "1"), ("f[2,2,1;{2},{3},{1}]", "1"),
      ("f[3,1,1;{1},{2},{3}]", "2"), ("f[3,1,1;{2},{1},{3}]", "2"),
      ("f[3,1,1;{2},{3},{1}]", "2")]),
    (("expand", "f[2,1;1,2]", "f[2;3]"),
     [("f[2,1,2;1,2,3]", "1"), ("f[2,2,1;1,2,3]", "1"), ("f[2,2,1;1,3,2]", "1"),
      ("f[2,2,1;3,1,2]", "1"), ("f[3,1,1;1,2,3]", "2"), ("f[3,1,1;1,3,2]", "2"),
      ("f[3,1,1;3,1,2]", "2")]),
    (("lyndon", "rewrite", "x1x1x0x0x1"),
     [(["x0x0x1x1x1"], "-3"), (["x0x1x0x1x1"], "-1"), (["x0x1x1", "x0x1"], "1"),
      (["x1", "x0x1", "x0x1"], "-1/2"), (["x1", "x1", "x0x0x1"], "1/2")]),
])
def test_cli_json_coefficients_pinned(capsys, argv, want):
    """Integer multiplicities inside the words layer still print as the
    rationals they were before."""
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    data = json.loads(out)
    terms = data["terms"] if argv[0] == "flatten" else data
    key = "monomial" if argv[0] == "lyndon" else "spec"
    assert [(t[key], t["coeff"]) for t in terms] == want
    if argv[0] == "flatten":
        assert data["fraction"]["den"] == [
            {"form": {"3": "1"}, "exp": 1}, {"form": {"2": "1", "3": "1"}, "exp": 2},
            {"form": {"1": "1"}, "exp": 2}]


def test_cli_flatten(capsys, tmp_path):
    forest = {"nodes": [{"id": 1, "set": [1, 2], "exp": 1, "children": [
        {"id": 2, "set": [1], "exp": 1, "children": []},
        {"id": 3, "set": [2], "exp": 1, "children": []}]}]}
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(forest))
    code, out, _ = run_cli(capsys, "flatten", f"@{path}")
    assert code == 0 and "f[2,1;{1},{2}]" in out
    # integer exponents other than 1 pass the integer check
    code, out, _ = run_cli(capsys, "flatten",
                           '{"nodes":[{"set":[1,2],"exp":2,"children":[{"set":[2]}]}]}')
    assert code == 0 and out.startswith("1*f[2,1;{1},{2}]\n")


def test_cli_galois_cycle(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--format", "json", "galois", "derive",
                           "--evaluator", "zeta", "--generators", "f[2;1];f[1;1]")
    assert code == 0
    tr = json.loads(out)
    assert any(e["spec"] == "f[1;1]" and e["value"] == "0" for e in tr["shifts"])
    tpath = tmp_path / "t.json"
    tpath.write_text(out)

    code, out, _ = run_cli(capsys, "--format", "json", "galois", "invert",
                           "--transform", f"@{tpath}")
    assert code == 0
    inv = json.loads(out)
    vals = {e["spec"]: Fraction(e["value"]) for e in inv["shifts"]}
    orig = {e["spec"]: Fraction(e["value"]) for e in tr["shifts"]}
    assert vals == {k: -v for k, v in orig.items()}

    combo = {"terms": [{"holo": "1", "specs": ["f[2;1]"]}]}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(combo))
    code, out, _ = run_cli(capsys, "galois", "apply", "--transform", f"@{tpath}",
                           "--combo", f"@{cpath}")
    assert code == 0 and "f[2;1]" in out

    combos_path = tmp_path / "combos.json"
    combos_path.write_text(json.dumps([combo,
                                       {"terms": [{"holo": "1", "specs": ["f[1;1]"]}]}]))
    code, out, _ = run_cli(capsys, "galois", "check", "--evaluator", "zeta",
                           "--generators", "f[2;1];f[1;1]",
                           "--combos", f"@{combos_path}", "--tol", "1/1000000")
    assert code == 0 and "all: PASS" in out


def test_cli_gram_config(capsys, tmp_path):
    cfg = tmp_path / "gram.json"
    cfg.write_text(json.dumps({"gram": [["2", "1"], ["1", "2"]]}))
    code, out, _ = run_cli(capsys, "--gram", str(cfg), "orth", "z1", "z2")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run_cli(capsys, "orth", "z1", "z2")
    assert out.strip() == "true"


def test_cli_gram_reaches_the_zeta_evaluator(capsys, tmp_path):
    """Under --gram, eval with the zeta evaluator checks locality with the
    Gram block, as galois apply does: z2 is not orthogonal to z1 there."""
    cfg = tmp_path / "gram.json"
    cfg.write_text(json.dumps({"gram": [["2", "1"], ["1", "2"]]}))
    combo = '{"terms":[{"holo":"z2","specs":["f[2;1]"]}]}'
    want = "error: coefficient z2 not orthogonal to its fraction part\n"
    for argv in (("eval", "--evaluator", "zeta", combo),
                 ("galois", "apply", "--transform", '{"shifts":[]}', "--combo", combo)):
        assert run_cli(capsys, "--gram", str(cfg), *argv) == (1, "", want)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out


@pytest.mark.parametrize("config", [[1, 2], {"gram": 5}, {"gram": [[1.5]]},
                                    {"grm": [[2]]}],
                         ids=["top-level-list", "gram-not-rows", "float-entry",
                              "missing-gram-key"])
def test_cli_gram_config_rejected(capsys, tmp_path, config):
    cfg = tmp_path / "gram.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--gram", str(cfg), "orth", "z1", "z2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# deeper than the JSON decoder accepts: Python's recursion limit of 1000
# bounds it up to 3.11, and a C recursion limit under 10^4 from 3.12
DEEP = "[" * 100_000


@pytest.mark.parametrize("argv", [
    ["flatten", '{"nodes":5}'],
    ["galois", "apply", "--transform", "[1,2]", "--combo", "f[2;1]"],
    ["galois", "apply", "--transform", '{"shifts":[{"spec":"f[2;1]","value":[1]}]}',
     "--combo", "f[2;1]"],
    ["galois", "apply", "--transform", '{"shifts":[]}', "--combo", '{"terms":5}'],
    ["galois", "check", "--evaluator", "zeta", "--generators", "f[2;1]",
     "--combos", "[5]"],
    ["flatten", '{"nodes":[{"set":[1],"exp":1.5}]}'],
    ["flatten", '{"nodes":[{"set":[1.7]}]}'],
    ["flatten", '{"nodes":[{"set":[1],"exp":true}]}'],
    ["eval", "--evaluator", "zeta", '{"terms":[{"specs":"f[2;1]"}]}'],
    ["eval", "--evaluator", "zeta", '{"terms":[{"specs":""}]}'],
    ["eval", "--evaluator", "zeta", '{"terms":[{"holo":2,"specs":["f[2;1]"]}]}'],
    ["flatten", DEEP],
    ["galois", "apply", "--transform", DEEP, "--combo", "f[2;1]"],
    ["eval", "--evaluator", "ms", '{"terms":' + DEEP],
    ["galois", "check", "--generators", "f[2;1]", "--combos", DEEP],
], ids=["forest-nodes-not-list", "transform-not-object", "shift-value-list",
        "combo-terms-not-list", "combos-entry-not-combo", "forest-float-exp",
        "forest-float-set-entry", "forest-bool-exp", "combo-specs-string",
        "combo-specs-empty-string", "combo-holo-not-string", "forest-too-deep",
        "transform-too-deep", "combo-too-deep", "combos-too-deep"])
def test_cli_malformed_payload_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_galois_apply_output_ignores_term_order(capsys):
    transform = json.dumps({"shifts": [{"spec": "f[2;1]", "value": "1"},
                                       {"spec": "f[3;2]", "value": "2"}]})
    terms = [{"holo": "1", "specs": ["f[2;1]"]}, {"holo": "2", "specs": ["f[3;2]"]},
             {"holo": "z3", "specs": []}]
    outputs = set()
    for order in (terms, terms[::-1]):
        combo = json.dumps({"terms": order})
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, "--format", fmt, "galois", "apply",
                                   "--transform", transform, "--combo", combo)
            assert code == 0
            outputs.add((fmt, out))
    assert len(outputs) == 2


@pytest.mark.parametrize("precision", ["-1", str(LIMITS["precision"] + 1)])
def test_cli_precision_out_of_range(capsys, precision):
    code, out, err = run_cli(capsys, "--precision", precision, "eval",
                             "--evaluator", "zeta", "f[3;1]")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_mzv_over_budget(capsys):
    code, out, err = run_cli(capsys, "--precision", "1000", "eval",
                             "--evaluator", "zeta", "f[24;1]")
    assert code == 1 and out == ""
    assert err == ("error: MZV work of zeta(24) at 1000 digits 2479812500 exceeds the limit "
                   "1500000000\n")


def test_cli_zeta_skips_a_term_that_vanishes_at_zero(capsys):
    """A coefficient that vanishes at the origin makes its term 0, so no MZV
    is computed, not even one over the work budget; the spec must still be
    a Chen fraction."""
    for evaluator in ("zeta", "ms"):
        code, out, err = run_cli(capsys, "--precision", "1000", "eval", "--evaluator",
                                 evaluator, '{"terms":[{"holo":"z2","specs":["f[24;1]"]}]}')
        assert (code, out, err) == (0, "0\n", "")
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta",
                             '{"terms":[{"holo":"z2","specs":["f[2;{1}]"]}]}')
    assert code == 1 and out == "" and err == "error: f[2;{1}] is not a Chen fraction\n"


def test_cli_combo_mixing_lmaps(capsys):
    """Specs of two L-maps in one monomial sort by L-map name first, so their
    int and set letters are never compared."""
    combo = '{"terms":[{"holo":"1","specs":["f[1;1]","f[1;{2}]"]}]}'
    assert run_cli(capsys, "eval", "--evaluator", "ms", combo) == (0, "0\n", "")
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta", combo)
    assert code == 1 and out == "" and err == "error: f[1;{2}] is not a Chen fraction\n"


@pytest.mark.parametrize("precision", ["-1", str(LIMITS["precision"] + 1)])
@pytest.mark.parametrize("command", [
    ("eval", "--evaluator", "zeta", "f[1;1]"),
    ("eval", "--evaluator", "zeta", "3"),
    ("galois", "derive", "--evaluator", "zeta", "--generators", "f[1;1]"),
])
def test_cli_precision_checked_without_an_mzv(capsys, precision, command):
    code, out, err = run_cli(capsys, "--precision", precision, *command)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lmap, word", [("speer", "x1"), ("chen", "x{1,2}")])
def test_cli_letter_outside_lmap_alphabet(capsys, lmap, word):
    code, out, err = run_cli(capsys, "phi", "--lmap", lmap, word)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert word in err and lmap in err


@pytest.mark.parametrize("spec", ["f[2;0]", "f[2;-1]"])
@pytest.mark.parametrize("command", [
    ("eval", "--evaluator", "zeta"),
    ("eval", "--evaluator", "ms"),
    ("galois", "apply", "--transform", '{"shifts":[]}', "--combo"),
    ("unphi",),
    ("expand", "f[1;1]"),
])
def test_cli_spec_letter_outside_chen_alphabet(capsys, spec, command):
    """The zeta evaluator reads only a spec's exponents, unphi only its
    word and expand only its letters' locality, yet a letter outside the
    Chen alphabet is an error under them as under ms and galois apply."""
    code, out, err = run_cli(capsys, *command, spec)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"letter x{spec[4:-1]} is outside the alphabet of L-map chen" in err


@pytest.mark.parametrize("command", [
    ("unphi", "f[1,1;1,{2}]"),
    ("eval", "--evaluator", "ms", "f[1,1;1,{2}]"),
    ("eval", "--evaluator", "iter", "f[1,1;1,{2}]"),
    ("galois", "derive", "--generators", "f[2,1;1,{2}]"),
])
def test_cli_spec_mixing_integer_and_set_letters(capsys, command):
    """No alphabet holds both kinds of letter, so a spec literal that mixes
    them is a parse error, as a mixed word is for the lyndon verbs."""
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "integer letters and set letters" in err


@pytest.mark.parametrize("command, expected", [
    (("eval", "--evaluator", "zeta", '{"terms":[{"holo":"10^400","specs":["f[2;1]"]}]}'),
     "1.64493406684937e+400 (err<=1.16e+388)\n"),
    (("eval", "--evaluator", "zeta", '{"terms":[{"holo":"1/10^400","specs":["f[2;1]"]}]}'),
     "1.64493406684937e-400 (err<=1.16e-412)\n"),
    (("galois", "check", "--generators", "f[2;1]", "--combos", '["10^400"]'),
     "ms=1e+400 e=1e+400 |diff|=0\nall: PASS\n"),
    (("galois", "check", "--evaluator", "zeta", "--generators", "f[2;1]", "--combos",
      '[{"terms":[{"holo":"10^400","specs":["f[3;1]"]}]}]'),
     "ms=0 e=1.2020569e+400 |diff|=1.2e+400\nall: FAIL\n"),
], ids=["eval-above", "eval-below", "check-ms", "check-zeta"])
def test_cli_values_beyond_the_float_range(capsys, command, expected):
    """Values a float cannot hold print in the same format as those it can,
    neither as an OverflowError nor as 0."""
    code, out, err = run_cli(capsys, *command)
    assert code == (1 if expected.endswith("FAIL\n") else 0) and err == ""
    assert out.endswith(expected)
    json_code, out, err = run_cli(capsys, "--format", "json", *command)
    assert json_code == code and err == ""
    data = json.loads(out)
    if "entries" in data:
        assert data["entries"][0]["diff"] == expected.split("|diff|=")[1].split("\n")[0]
    else:
        assert f'{data["value"]} (err<={data["error_bound"]})\n' == expected


def test_float_str_keeps_its_own_decimal_context():
    """Beyond the float range the digits come from a context of the helper's
    own, so a narrow context in the caller's thread neither traps nor rounds
    them."""
    with decimal.localcontext(decimal.Context(prec=2, Emin=-500, Emax=500)):
        assert float_str(Fraction(3 * 10 ** 600, 7), 15) == "4.28571428571429e+599"
        assert float_str(Fraction(-1, 10 ** 600), 3) == "-1e-600"
        assert float_str(Fraction(2, 3), 15) == "0.666666666666667"


def _float_str_by_full_division(x, digits):
    """float_str by one Decimal division of the whole numerator and
    denominator, which is quadratic in their digits, wherever a float cannot
    hold x to full precision: beyond the float range and in the subnormal
    range."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if abs(f) >= sys.float_info.min:
        return f"{f:.{digits}g}"
    wide = decimal.Context(prec=digits, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    return f"{wide.normalize(wide.divide(x.numerator, x.denominator)):g}"


def test_float_str_matches_full_division_beyond_the_float_range():
    rng = random.Random(65)
    values = []
    for e in (309, 310, 400, 2000):
        values += [Fraction(10 ** e), Fraction(rng.randrange(1, 10 ** 9) * 10 ** e + 1, 7),
                   Fraction(1, rng.randrange(1, 10 ** 6) * 10 ** e),
                   Fraction(rng.randrange(10 ** e, 10 ** (e + 30)), rng.randrange(1, 10 ** 25)),
                   Fraction(rng.randrange(1, 10 ** 40), 10 ** e * rng.randrange(1, 10 ** 30)),
                   Fraction(2 ** (4 * e), 3 ** e)]
        # ties at 1, 3 and 9 digits round half to even; one unit more or
        # less decides them
        for d in (1, 3, 9):
            tie = (rng.randrange(10 ** (d - 1), 10 ** d) * 10 + 5) * 10 ** e
            values += [Fraction(tie), Fraction(tie + 1), Fraction(tie - 1), Fraction(1, tie)]
    values += [-x for x in values[::3]]
    for x in values:
        for digits in (1, 3, 9, 15):
            assert float_str(x, digits) == _float_str_by_full_division(x, digits), (x, digits)
    for x in (Fraction(3 * 10 ** 99999 + 7, 9), Fraction(-1, 7 * 10 ** 99999 + 1)):
        assert float_str(x, 15) == _float_str_by_full_division(x, 15)


def test_float_str_matches_full_division_in_the_subnormal_range():
    """A float below the least normal float keeps too few significant bits
    for 15 digits, so those values take the Decimal path too."""
    rng = random.Random(66)
    tiny = Fraction(sys.float_info.min)
    values = [Fraction(1, 302876 * 10 ** 309), tiny * Fraction(999999, 10 ** 6),
              Fraction(sys.float_info.min * sys.float_info.epsilon)]
    for e in range(308, 325):
        values += [Fraction(rng.randrange(1, 10 ** 9), 10 ** (e + 9)),
                   Fraction(1, 3 * 10 ** e)]
    values += [-x for x in values[::2]]
    for x in values:
        assert 0 < abs(float(x)) < sys.float_info.min or not float(x)
        for digits in (1, 3, 9, 15):
            assert float_str(x, digits) == _float_str_by_full_division(x, digits), (x, digits)
    assert float_str(Fraction(1, 302876 * 10 ** 309), 15) == "3.30168121607523e-315"
    assert float_str(tiny, 15) == f"{sys.float_info.min:.15g}"


def test_cli_value_of_a_million_digits(capsys):
    """float_str cuts the quotient before Decimal sees it; one Decimal
    division of the whole value took about 20 s here."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta",
                             '{"terms":[{"holo":"10^1000000","specs":["f[2;1]"]}]}')
    assert time.perf_counter() - start < 3
    assert code == 0 and err == "" and out == "1.64493406684937e+1000000 (err<=1.16e+999988)\n"


def test_cli_precision_20(capsys):
    code, out, _ = run_cli(capsys, "--precision", "20", "eval", "--evaluator",
                           "zeta", "f[3;1]")
    assert code == 0
    value, bound = out.strip().split(" (err<=")
    assert abs(float(value) - 1.2020569031595942) < 1e-14
    assert float(bound.rstrip(")")) < 1e-20
    # an error bound below the float range is still printed, not as 0
    code, out, _ = run_cli(capsys, "--precision", "400", "eval", "--evaluator",
                           "zeta", "f[3;1]")
    mantissa, exponent = out.strip().split(" (err<=")[1].rstrip(")").split("e")
    assert code == 0 and float(mantissa) > 0 and int(exponent) < -400


def test_cli_galois_check_fail_exits_1(capsys):
    code, out, _ = run_cli(capsys, "galois", "check", "--evaluator", "zeta",
                           "--generators", "f[2;1]", "--combos", '["f[3;1]"]')
    assert code == 1 and "all: FAIL" in out


def test_cli_galois_compose(capsys):
    t1 = '{"shifts":[{"spec":"f[2;1]","value":"1/2"},{"spec":"f[3;1]","value":"2"}]}'
    t2 = '{"shifts":[{"spec":"f[3;1]","value":"-1/3"},{"spec":"f[2;1]","value":"1"}]}'
    code, out, _ = run_cli(capsys, "galois", "compose", "--transform", t1, "--transform2", t2)
    assert code == 0 and out == "GaloisTransform(f[2;1]+3/2, f[3;1]+5/3)\n"
    code, out, _ = run_cli(capsys, "--format", "json", "galois", "compose",
                           "--transform", t1, "--transform2", t2)
    assert code == 0 and json.loads(out) == {"shifts": [
        {"spec": "f[2;1]", "value": "3/2"}, {"spec": "f[3;1]", "value": "5/3"}]}
    code, out, err = run_cli(capsys, "galois", "compose", "--transform", t1,
                             "--transform2", '{"shifts":[{"spec":"f[2;1]","value":"1"}]}')
    assert (code, out) == (1, "") and err == "error: transforms use different generator sets\n"


def test_cli_lyndon_test(capsys):
    for word, verdict in (("x0x1", True), ("x1x0x1", False)):
        code, out, _ = run_cli(capsys, "lyndon", "test", word)
        assert code == 0 and out == f"{str(verdict).lower()}\n"
        code, out, _ = run_cli(capsys, "--format", "json", "lyndon", "test", word)
        assert code == 0 and json.loads(out) == {"lyndon": verdict}


def test_cli_galois_derive_without_a_spec_literal(capsys):
    code, out, err = run_cli(capsys, "galois", "derive", "--generators", "x")
    assert (code, out) == (2, "") and "expected spec literals like f[2;1]" in err


@pytest.mark.parametrize("generators", ["f[2;1] xyz", "f[2;1],f[3;1]", "f[2;1];",
                                        "f[2;1]f[3;1]"])
def test_cli_generators_are_spec_literals_and_nothing_else(capsys, generators):
    code, out, err = run_cli(capsys, "galois", "derive", "--generators", generators)
    assert (code, out) == (2, "") and err.startswith("parse error: ")
    code, out, _ = run_cli(capsys, "galois", "derive", "--generators", " f[2;1] ; f[3;1]")
    assert code == 0 and out == "GaloisTransform(f[2;1]+0, f[3;1]+0)\n"


def test_cli_shift_value_is_read_as_a_rational(capsys):
    for value, want in (('"1/2"', (0, "GaloisTransform(f[2;1]+-1/2)\n")),
                        ("3", (0, "GaloisTransform(f[2;1]+-3)\n")), ("0.1", (1, ""))):
        transform = '{"shifts":[{"spec":"f[2;1]","value":%s}]}' % value
        code, out, err = run_cli(capsys, "galois", "invert", "--transform", transform)
        assert (code, out) == want
    assert err == "error: malformed transform JSON (TypeError: cannot coerce 0.1 to a rational)\n"


def test_cli_shift_value_refuses_a_bool(capsys):
    transform = '{"shifts":[{"spec":"f[2;1]","value":true}]}'
    code, out, err = run_cli(capsys, "galois", "invert", "--transform", transform)
    assert (code, out) == (1, "")
    assert err == "error: malformed transform JSON (TypeError: cannot coerce True to a rational)\n"


@pytest.mark.parametrize("generators, position", [
    ("f[a;1]", 2), ("f[2;1];f[a;1]", 9), (" f[2;1] ;  f[2;{1,a}]", 18), ("f[2;1];f[1;1", 7)])
def test_spec_list_errors_count_positions_from_the_list(capsys, generators, position):
    with pytest.raises(ParseError) as exc:
        parse_spec_list(generators)
    assert exc.value.position == position
    code, out, err = run_cli(capsys, "galois", "derive", "--generators", generators)
    assert (code, out) == (2, "") and err == f"parse error: {exc.value}\n"


def test_cli_lyndon_generators_beyond_the_word_limit(capsys):
    code, out, err = run_cli(capsys, "lyndon", "generators", "x0,x1,x2", "--max-length", "993")
    assert (code, out) == (1, "")
    assert err == (f"error: locality Lyndon words up to length 993: at least "
                   f"{LIMITS['generators'] + 1} exceeds the limit {LIMITS['generators']}\n")
    code, out, _ = run_cli(capsys, "lyndon", "generators", "x2,x1,x2", "--max-length", "66")
    assert code == 0 and len(out.splitlines()) == 2277


@pytest.mark.parametrize("argv, message", [
    (("eval", "--evaluator", "zeta", "f[299999999999999999999;3]"),
     "spec weight 299999999999999999999 exceeds the limit 1024"),
    (("expand", "f[2,199999999999999999999;4,2]", "f[1;3]"),
     "spec weight 200000000000000000001 exceeds the limit 1024"),
    (("flatten", '{"nodes":[{"set":[1],"exp":99999999999999999999}]}'),
     "forest weight 99999999999999999999 exceeds the limit 1024"),
    (("flatten", '{"nodes":[{"set":[1],"exp":1024,"children":[{"set":[1],"exp":1024}]}]}'),
     "forest weight 2048 exceeds the limit 1024"),
    (("flatten", json.dumps(chain_forest(400))), "forest depth 101 exceeds the limit 100"),
    (("expand", "f[1024;3]", "f[1;4]"), "spec weight 1025 exceeds the limit 1024"),
    (("lyndon", "generators", "x1", "--max-length", "4096"),
     "max length 4096 exceeds the limit 1024"),
    (("lyndon", "generators", "x1,x2", "--max-length", "2048"),
     "max length 2048 exceeds the limit 1024"),
    (("decompose", "3^999999999"), "constant power bits 1584962500 exceeds the limit 4194304"),
    (("decompose", "3^99999999/z1"), "constant power bits 158496249 exceeds the limit 4194304"),
    (("decompose", "1/(z1+z1025)"), "variable index 1025 exceeds the limit 1024"),
    (("decompose", "*".join(["3^2600000"] * 4)),
     "constant product bits 8241804 exceeds the limit 4194304"),
    (("decompose", "10^5000"), "printed integer digits 5001 exceeds the limit 4300"),
    (("decompose", "1" + "0" * 5000), "integer literal digits 5001 exceeds the limit 4300"),
    (("galois", "derive", "--evaluator", "zeta", "--generators", "f[2,41;1,2]"),
     "generator f[2,41;1,2] is not a Lyndon fraction"),
    (("galois", "apply", "--transform",
      '{"shifts":[{"spec":"f[2;1]","value":"1%s"}]}' % ("0" * 5000), "--combo", "f[2;1]"),
     "rational literal digits 5001 exceeds the limit 4300"),
    (("galois", "invert", "--transform",
      '{"shifts":[{"spec":"f[2;1]","value":"1e999999999"}]}'),
     "rational literal exponent 999999999 exceeds the limit 4300"),
    (("galois", "check", "--generators", "f[2;1]", "--combos", '["f[2;1]"]',
      "--tol", "1" + "0" * 5000), "rational literal digits 5001 exceeds the limit 4300"),
    (("galois", "check", "--generators", "f[2;1]", "--combos", '["f[2;1]"]',
      "--tol", "1e99999999"), "rational literal exponent 99999999 exceeds the limit 4300"),
    (("galois", "check", "--generators", "f[2;1]", "--combos", '["f[2;1]"]', "--tol", "-1"),
     "tolerance -1 is negative"),
], ids=["weight", "expand-weight", "node-exponent", "forest-weight", "forest-depth",
        "product-weight", "length-one", "length-two", "constant-power",
        "constant-power-over-a-form", "variable-in-a-sum", "constant-product",
        "printed-integer", "integer-literal", "non-lyndon-generator", "shift-value-digits",
        "shift-value-exponent", "tolerance-digits", "tolerance-exponent", "negative-tolerance"])
def test_cli_limits_exit_1_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_rational_strings_are_read_within_the_digits_limit(capsys, tmp_path):
    """A rational string is read only when each digit run (an underscore
    joins two) and its decimal exponent stay within LIMITS["integer digits"];
    a refusal comes before Fraction reads it, so it takes no time."""
    top = LIMITS["integer digits"]
    for text, value in (("1" * top, int("1" * top)), ("1e%d" % top, 10 ** top),
                        (" -2.5E-%d " % top, Fraction(-25, 10 ** (top + 1))),
                        ("1" * top + "/" + "3" * top, Fraction(int("1" * top), int("3" * top)))):
        assert exactlin._as_fraction(text) == value
    start = time.perf_counter()
    for text, what, n in (("1" * (top + 1), "digits", top + 1),
                          ("1/" + "1_" * top + "1", "digits", top + 1),
                          ("0." + "0" * top + "1", "digits", top + 1),
                          ("1e99999999", "exponent", 99999999),
                          ("1.5E+4301", "exponent", top + 1), ("1e-9999999", "exponent", 9999999)):
        with pytest.raises(BudgetExceeded, match=f"^rational literal {what} {n} exceeds the "
                                                 f"limit {top}$"):
            exactlin._as_fraction(text)
    assert time.perf_counter() - start < 1
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [["1" + "0" * 5000]]}))
    assert run_cli(capsys, "--gram", str(path), "decompose", "1/z1") == (
        1, "", "error: rational literal digits 5001 exceeds the limit 4300\n")


@pytest.mark.parametrize("argv, option", [
    (("compose", "--transform", '{"shifts":[]}'), "transform2"),
    (("compose", "--transform2", '{"shifts":[]}'), "transform"),
    (("apply", "--combo", "f[2;1]"), "transform"), (("invert",), "transform"),
    (("check", "--generators", "f[2;1]"), "combos"),
    (("apply", "--transform", '{"shifts":[]}'), "combo"), (("derive",), "generators"),
    (("derive", "--evaluator", "zeta"), "generators"),
    (("check", "--combos", '["f[2;1]"]'), "generators")])
def test_cli_galois_names_a_missing_option(capsys, argv, option):
    assert run_cli(capsys, "galois", *argv) == (
        1, "", f"error: galois {argv[0]} needs --{option}\n")


def test_cli_gram_file_nested_too_deeply(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text('{"gram":' + DEEP)
    code, out, err = run_cli(capsys, "--gram", str(path), "decompose", "1/z1")
    assert (code, out, err) == (1, "", f"error: {path}: inner-product JSON nested too deeply\n")


def test_cli_answers_where_a_limit_is_not_reached(capsys):
    code, out, _ = run_cli(capsys, "flatten", json.dumps(chain_forest(100)))
    assert code == 0 and out.startswith("1*f[100;{1}]\n")
    # no polynomial holds z_n past the packing limit, so its exponent is 0
    code, out, _ = run_cli(capsys, "eval", "--evaluator", "iter", "f[2,2;3,999999999999999999991]")
    assert (code, out) == (0, "0\n")
    word = "x0x1x3" * 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out, _ = run_cli(capsys, "shuffle", word, "x2")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and out.count("1*") == 301


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))


def test_cli_huge_weights_and_letters_under_an_address_space_limit():
    """Inputs whose words or packed monomials would take gigabytes, each run
    in a child process limited to 2 GB of address space."""
    script = ("import sys\nfrom linpole.cli import main\n"
              "for argv in sys.argv[1:]:\n"
              "    print(main(argv.split()), flush=True)\n")
    argvs = ["unphi f[300000000;3]", "eval --evaluator zeta f[300000000;3]",
             "eval --evaluator iter f[2,2;3,1000000000]"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *argvs], env=env, text=True,
                          capture_output=True, timeout=120, preexec_fn=_limit_address_space)
    assert proc.stdout.split() == ["1", "1", "0", "0"], proc.stderr
    assert proc.stderr.splitlines() == ["error: spec weight 300000000 exceeds the limit 1024"] * 2


def test_cli_galois_check_reads_a_combo_dict_as_its_text(capsys):
    combo = {"terms": [{"holo": "2", "specs": ["f[2;1]", "f[3;2]"]}, {"specs": ["f[2,1;1,2]"]}]}
    reports = [run_cli(capsys, "--format", fmt, "galois", "check", "--generators",
                       "f[2;1];f[3;1]", "--combos", json.dumps([entry]))
               for fmt in ("text", "json") for entry in (combo, json.dumps(combo))]
    assert reports[0] == reports[1] and reports[2] == reports[3]
    assert reports[0][0] == 0 and "all: PASS" in reports[0][1]


def test_cli_zeta_combo_coefficient_must_be_holomorphic(capsys):
    code, out, err = run_cli(capsys, "eval", "--evaluator", "zeta",
                             '{"terms":[{"holo":"1/z1","specs":["f[2;1]"]}]}')
    assert (code, out) == (1, "") and "combo coefficient must be holomorphic" in err


def test_cli_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("z2/(z1+z2)"))
    code, out, _ = run_cli(capsys, "pi-plus", "-")
    assert code == 0 and out.strip() == "1/2"


# ------------------------------------------------------------------- schemas

def _registry():
    import importlib.resources as ir
    from referencing import Registry, Resource

    root = ir.files("linpole") / "schemas"
    resources = []
    for name in ("common.json", "decomposition.json", "germ.json",
                 "subspace.json", "eval_result.json"):
        data = json.loads((root / name).read_text())
        resources.append((f"linpole/{name}", Resource.from_contents(data)))
    return Registry().with_resources(resources)


def _validate(instance, schema_name):
    import importlib.resources as ir
    import jsonschema

    root = ir.files("linpole") / "schemas"
    schema = json.loads((root / schema_name).read_text())
    jsonschema.validate(instance, schema, registry=_registry())


def test_json_outputs_validate_against_schemas(capsys):
    _code, out, _ = run_cli(capsys, "--format", "json", "decompose",
                            "z2/(z1+z2) + 1/(z1*z2^2)")
    _validate(json.loads(out), "decomposition.json")

    _code, out, _ = run_cli(capsys, "--format", "json", "residue", "--kind", "d",
                            "1/(z1*z2) + 1/z1^2")
    _validate(json.loads(out), "decomposition.json")

    _code, out, _ = run_cli(capsys, "--format", "json", "dep", "1/(z1+z2)")
    _validate(json.loads(out), "subspace.json")

    _code, out, _ = run_cli(capsys, "--format", "json", "mul", "--locality",
                            "raw", "1/z1", "z2/(z1+z2)")
    _validate(json.loads(out), "germ.json")

    for ev, expr in (("ms", "z2/(z1+z2)"), ("iter", "((z1-z2)/(z1+z2))^2"),
                     ("zeta", "f[2;1]")):
        _code, out, _ = run_cli(capsys, "--format", "json", "eval",
                                "--evaluator", ev, expr)
        _validate(json.loads(out), "eval_result.json")


def test_text_and_json_agree(capsys):
    _c, text_out, _ = run_cli(capsys, "eval", "--evaluator", "ms", "z2/(z1+z2)")
    _c, json_out, _ = run_cli(capsys, "--format", "json", "eval",
                              "--evaluator", "ms", "z2/(z1+z2)")
    assert json.loads(json_out)["value"] == text_out.strip()


@pytest.mark.parametrize("verb, options, exprs", [
    ("decompose", [], ["-z1/(z1*(z1+z2))"]),
    ("pi-plus", [], ["-z2/(z1+z2)"]),
    ("eval", ["--evaluator", "ms"], ["-3*z2/(z1+z2)+1"]),
    ("residue", ["--kind", "d"], ["-(z1+z2)/(z1*z2)"]),
    ("dep", [], ["-z1/(z1+z2)"]),
    ("orth", [], ["-1/(z1+z2)", "-(z1-z2)"]),
    ("mul", ["--locality", "raw"], ["--z1", "-2/z2"]),
])
def test_cli_expression_may_begin_with_minus(capsys, verb, options, exprs):
    """A germ expression starting with "-" is read as the expression, with
    the verb's options before or after it, as if it followed "--"."""
    want = run_cli(capsys, verb, *options, "--", *exprs)
    assert want[0] == 0 and want[1]
    assert run_cli(capsys, verb, *options, *exprs) == want
    assert run_cli(capsys, verb, *exprs, *options) == want
    if len(exprs) == 2:
        assert run_cli(capsys, verb, exprs[0], *options, exprs[1]) == want
    json_want = run_cli(capsys, "--format", "json", verb, *options, "--", *exprs)
    assert run_cli(capsys, "--format", "json", verb, *exprs, *options) == json_want


@pytest.mark.parametrize("argv", [["decompose", "-h"], ["decompose", "-z1", "-h"],
                                  ["orth", "--help", "-z1", "-z2"]])
def test_cli_help_still_parses_beside_a_negated_expression(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: linpole {argv[0]} [-h]")


def test_cli_unknown_option_is_still_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--bogus", "z1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
