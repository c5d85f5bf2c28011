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

import re
from fractions import Fraction
from typing import Optional

from .errors import NonHomogeneousPole, ParseError
from .exactlin import LinearForm, zvar
from .germs import ZERO_GERM, RationalGerm, germ_mul, germ_sum
from .poly import ONE

# Each level of parentheses costs five stack frames: deeper input would
# exhaust Python's default recursion limit of 1000 before a typed error.
_MAX_NESTING = 100

# Whitespace before a token is skipped; after the last token there is none
# to match, so trailing whitespace ends the input.
_TOKEN = re.compile(r"\s*(?:(\d+)|(z\d+)|([-+*/^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        if m.group(4) is not None:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("var", int(m.group(2)[1:]), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Value:
    """coef * prod(form^exp) * rest.  rest is None for a product of powers of
    primitive linear forms, the only shape a divisor may take, and a germ
    otherwise.  *, / and ^ act on coef and the exponents; a germ is built
    only for the terms of a sum and once for the result."""

    __slots__ = ("coef", "factors", "rest")

    def __init__(self, coef: Fraction, factors: Optional[dict[LinearForm, int]] = None,
                 rest: Optional[RationalGerm] = None):
        self.coef = coef
        self.factors = {} if factors is None else factors
        self.rest = rest

    def __neg__(self) -> "_Value":
        return _Value(-self.coef, self.factors, self.rest)

    def germ(self) -> RationalGerm:
        if not self.coef:  # no power of a form is expanded only to vanish
            return ZERO_GERM
        num, den = (ONE, ()) if self.rest is None else (self.rest.numerator, self.rest.denominator)
        return RationalGerm(num * self.coef,
                            [*den, *((f, -e) for f, e in self.factors.items())])


def _product(a: _Value, b: _Value, sign: int) -> _Value:
    """a * b for sign 1, a / b for sign -1 (b then has no rest)."""
    factors = dict(a.factors)
    for f, e in b.factors.items():
        factors[f] = factors.get(f, 0) + sign * e
    rest = a.rest if b.rest is None else b.rest if a.rest is None else germ_mul(a.rest, b.rest)
    return _Value(a.coef * b.coef ** sign, factors, rest)


def _factored(g: RationalGerm) -> _Value:
    """A summed germ, factored again when it is a constant or a single
    homogeneous linear form."""
    num = g.numerator
    if not g.denominator:
        if num.is_constant():
            return _Value(num.constant_term())
        if num.degree() == 1 and not num.constant_term():
            form = LinearForm({mono[0][0]: c for mono, c in num.terms})
            prim, scalar = form.primitive()
            return _Value(scalar, {prim: 1})
    return _Value(Fraction(1), rest=g)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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
                return _factored(germ_sum(t.germ() for t in terms))

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
            return _Value(Fraction(1), {zvar(val): 1})
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
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


_WORD_TOKEN = re.compile(r"x0|x\{(\d+(?:,\d+)*)\}|x(\d+)")


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
            raise ParseError("bad word literal", pos)
        if m.group(1) is not None:
            letters.append(frozenset(int(x) for x in m.group(1).split(",")))
        elif m.group(2) is not None:
            letters.append(int(m.group(2)))
        else:
            letters.append(X0)
        pos = m.end()
    return tuple(letters)


_SPEC_RE = re.compile(r"^\s*f\[([^;\]]*);([^\]]*)\]\s*$")
# A semicolon between spec literals, not the one inside a literal such as f[2;1].
_LITERAL_SEPARATOR = re.compile(r";(?![^\[]*\])")
# A comma between entries or letters, not one inside a set letter such as {1,3}.
_ENTRY_SEPARATOR = re.compile(r",(?![^{}]*\})")
_INTEGER = re.compile(r"[+-]?\d+")


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
            out.append(int(body))
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
        specs.append(parse_spec(entry))
        pos += len(entry) + 1
    return specs
