"""Expression grammar for germs, word literals and fraction-spec literals.

Germ grammar (ASCII):
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' posint)*
    atom   := integer | 'z' posint | '(' expr ')'

Divisors must evaluate to a constant times a product of powers of homogeneous
linear forms; anything else (affine factors, genuinely polynomial factors)
raises NonHomogeneousPole.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

from .errors import LIMITS, NonHomogeneousPole, ParseError, _integer_literal, limit
from .exactlin import LinearForm, zvar
from .germs import ZERO_GERM, RationalGerm, germ_mul, germ_sum
from .poly import ONE, Polynomial, check_size

# Whitespace before a token is skipped; after the last token there is none
# to match, so trailing whitespace ends the input.  ASCII only: any other
# character is unexpected where it stands, a digit right after a z too.
_TOKEN = re.compile(r"\s*(?:(\d+)|(z\d+)|([-+*/^()])|z?([^\x00-\x7f])|(\S))", re.ASCII)
_KIND = (None, "int", "var", "op")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        k = m.lastindex
        s = m.group(k)
        if k > 3:
            raise ParseError(f"unexpected character {s!r}", m.start(k))
        tokens.append((_KIND[k], s if k == 3 else _integer_literal(s.lstrip("z")), m.start(k)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Value:
    """coef * prod(form^exp) * rest.  rest is None for a product of powers of
    primitive linear forms, the only shape a divisor may take, and a germ
    otherwise.  *, / and ^ act on coef and the exponents, and a sum keeps
    the cheapest shape its terms allow (see _sum), so a parse normalises a
    germ once, for the result."""

    __slots__ = ("coef", "factors", "rest")

    def __init__(self, coef: Fraction, factors: Optional[dict[LinearForm, int]] = None,
                 rest: Optional[RationalGerm] = None):
        self.coef = coef
        self.factors = {} if factors is None else factors
        self.rest = rest

    def __neg__(self) -> "_Value":
        return _Value(-self.coef, self.factors, self.rest)

    def numerator(self) -> Polynomial:
        """coef * rest's numerator * the forms of positive exponent, multiplied
        out: the whole value when it has no pole."""
        num = ONE if self.rest is None else self.rest.numerator
        for f, e in self.factors.items():
            if e > 0:
                num = num * Polynomial.from_linear(f) ** e
        return num * self.coef

    def germ(self) -> RationalGerm:
        if not self.coef:  # no power of a form is expanded only to vanish
            return ZERO_GERM
        den = () if self.rest is None else self.rest.denominator
        return RationalGerm(self.numerator(),
                            [*den, *((f, -e) for f, e in self.factors.items() if e < 0)])


def _product(a: _Value, b: _Value, sign: int) -> _Value:
    """a * b for sign 1, a / b for sign -1 (b then has no rest).  The constant
    is sized first, by log2 as powers are: each factor's bit length less one."""
    p, q = (b.coef.numerator, b.coef.denominator)[::sign]
    limit("constant bits", max(a.coef.numerator.bit_length() + p.bit_length(),
                               a.coef.denominator.bit_length() + q.bit_length()) - 2,
          "constant product bits")
    factors = dict(a.factors)
    for f, e in b.factors.items():
        factors[f] = factors.get(f, 0) + sign * e
    rest = a.rest if b.rest is None else b.rest if a.rest is None else germ_mul(a.rest, b.rest)
    return _Value(a.coef * b.coef if sign > 0 else a.coef / b.coef, factors, rest)


def _sum(terms: list[_Value]) -> _Value:
    """The sum in the cheapest shape its terms allow: terms c*L add up in one
    LinearForm, pole-free terms in one Polynomial, and only a sum with a pole
    in some term builds a germ per term.  A pole-free result that is a
    constant or one homogeneous linear form is factored, so it can divide."""
    terms = [t for t in terms if t.coef]  # as in germ(), a zero term builds nothing
    if all(t.rest is None and list(t.factors.values()) == [1] for t in terms):
        coeffs: dict[int, Fraction] = {}
        for t in terms:
            (form,) = t.factors
            check_size(1, max(form.coeffs))  # the variable limit the term's polynomial meets
            for v, c in form.coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + t.coef * c
    else:
        if all((t.rest is None or not t.rest.denominator)
               and min(t.factors.values(), default=0) >= 0 for t in terms):
            num = Polynomial.sum([t.numerator() for t in terms])
        else:
            g = germ_sum([t.germ() for t in terms])
            if g.denominator:
                return _Value(Fraction(1), rest=g)
            num = g.numerator
        if num.is_constant():
            return _Value(num.constant_term())
        if num.degree() > 1 or num.constant_term():
            return _Value(Fraction(1), rest=RationalGerm._trusted(num, ()))
        coeffs = {mono[0][0]: c for mono, c in num.terms}
    form, scalar = LinearForm(coeffs).primitive()
    return _Value(scalar, {form: 1}) if form else _Value(Fraction(0))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.forms: dict[int, LinearForm] = {}  # z_v by index, built once per parse

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> _Value:
        v = self.expr()
        kind, _val, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return v

    def expr(self) -> _Value:
        terms = [self.term()]
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                terms.append(t if val == "+" else -t)
            elif len(terms) == 1:
                return terms[0]
            else:
                return _sum(terms)

    def term(self) -> _Value:
        v = self.unary()
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "/":
                    if rhs.rest is not None:
                        raise NonHomogeneousPole(
                            "divisor is not a product of homogeneous linear forms")
                    if not rhs.coef:
                        raise ZeroDivisionError("division by zero")
                v = _product(v, rhs, 1 if val == "*" else -1)
            else:
                return v

    def unary(self) -> _Value:
        negate = False
        while self.peek()[1] == "-":  # iterative: no recursion per sign
            self.next()
            negate = not negate
        v = self.power()
        return -v if negate else v

    def power(self) -> _Value:
        v = self.atom()
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind2, k, pos2 = self.next()
                if kind2 != "int" or k < 0:
                    raise ParseError("exponent must be a nonnegative integer", pos2)
                rest = v.rest
                if rest is not None:
                    rest = RationalGerm(rest.numerator ** k,
                                        [(f, e * k) for f, e in rest.denominator])
                # sized before it is computed: 3^999999999 would take minutes;
                # an exponent past the float range is itself past the limit
                m = max(abs(v.coef.numerator), v.coef.denominator)
                if m > 1:
                    limit("constant bits", math.ceil(k * math.log2(m)) if k.bit_length() < 1000
                          else k, "constant power bits")
                v = _Value(v.coef ** k, {f: e * k for f, e in v.factors.items()}, rest)
            else:
                return v

    def atom(self) -> _Value:
        kind, val, pos = self.next()
        if kind == "int":
            return _Value(Fraction(val))
        if kind == "var":
            if val < 1:
                raise ParseError("variable index must be positive", pos)
            form = self.forms.get(val) or self.forms.setdefault(val, zvar(val))
            return _Value(Fraction(1), {form: 1})
        if kind == "op" and val == "(":
            self.depth += 1  # five stack frames per level
            if self.depth > LIMITS["parentheses nesting"]:
                limit("parentheses nesting", self.depth, "parentheses nesting",
                      lambda message: ParseError(message, pos))
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return v
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_germ(text: str) -> RationalGerm:
    """Parse a germ expression; affine or nonlinear pole factors are rejected."""
    return _Parser(text).parse().germ()


_WORD_TOKEN = re.compile(r"x0|x\{(\d+(?:,\d+)*)\}|x(\d+)", re.ASCII)


def parse_word(text: str):
    """Word literal: x0, x<int> and x{i,j,...} concatenated; '1' is the empty word."""
    from .words import X0

    text = text.strip()
    if text in ("1", ""):
        return ()
    letters = []
    pos = 0
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m:
            # past an x, the fault is in the letter's index
            raise ParseError("bad word literal", pos + (text[pos] == "x"))
        if m.group(1) is not None:
            letters.append(frozenset(_integer_literal(x) for x in m.group(1).split(",")))
        elif m.group(2) is not None:
            letters.append(_integer_literal(m.group(2)))
        else:
            letters.append(X0)
        pos = m.end()
    return tuple(letters)


_SPEC_RE = re.compile(r"^\s*f\[([^;\]]*);([^\]]*)\]\s*$")
# A semicolon between spec literals, not the one inside a literal such as f[2;1].
_LITERAL_SEPARATOR = re.compile(r";(?![^\[]*\])")
# A comma between entries or letters, not one inside a set letter such as {1,3}.
_ENTRY_SEPARATOR = re.compile(r",(?![^{}]*\})")
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)


def _spec_list(text: str, pos: int, sets: bool = False) -> list:
    """The comma-separated list of a spec literal at position pos: integers,
    or with sets=True also nonempty sets of them such as {1,3}."""
    out = []
    for entry in _ENTRY_SEPARATOR.split(text) if text.strip() else ():
        at, body = pos + len(entry) - len(entry.lstrip()), entry.strip()
        if sets and body[:1] == "{" and body[-1:] == "}":
            members = _spec_list(body[1:-1], at + 1)
            if not members:
                raise ParseError("empty set letter", at)
            out.append(frozenset(members))
        elif _INTEGER.fullmatch(body):
            out.append(_integer_literal(body))
        else:
            raise ParseError(f"expected an integer, got {body!r}" if body else "empty entry", at)
        pos += len(entry) + 1
    return out


def parse_spec(text: str):
    """Fraction-spec literal f[s1,...,sk; u1,...,uk]; set letters as {1,3}.
    Each entry is an integer, or a nonempty set of them for a letter, and
    the two lists have equal length; anything else raises ParseError."""
    from .fracspec import FractionSpec, chen_lmap, speer_lmap

    m = _SPEC_RE.match(text)
    if not m:
        raise ParseError("bad fraction spec literal", 0)
    exps = _spec_list(m.group(1), m.start(1))
    letters = _spec_list(m.group(2), m.start(2), sets=True)
    if len({isinstance(u, frozenset) for u in letters}) > 1:
        raise ParseError("integer letters and set letters cannot be mixed in one spec", m.start(2))
    if len(exps) != len(letters):
        raise ParseError("exponent and letter lists differ in length", m.start(1))
    lmap = speer_lmap() if any(isinstance(u, frozenset) for u in letters) else chen_lmap()
    return FractionSpec(exps, letters, lmap)


def parse_spec_list(text: str) -> list:
    """Spec literals separated by semicolons, such as f[2;1]; f[3,1;1,2].
    Each entry is exactly one literal; anything else raises ParseError."""
    specs, pos = [], 0
    for entry in _LITERAL_SEPARATOR.split(text):
        if not _SPEC_RE.match(entry):
            raise ParseError("expected spec literals like f[2;1]", pos)
        try:
            specs.append(parse_spec(entry))
        except ParseError as exc:  # report the position in the whole list
            raise ParseError(exc.message, pos + exc.position) from None
        pos += len(entry) + 1
    return specs
