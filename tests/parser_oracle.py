"""The germ parser as it stood before it kept one representation per
subexpression, kept word for word (imports made absolute, the nesting
limit checked through errors.limit) as a reference
oracle for tests/test_parser_cli.py.  It builds the germ of every
subexpression eagerly, so it is slow on high powers; use small inputs."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from linpole.errors import NonHomogeneousPole, ParseError, limit
from linpole.exactlin import LinearForm, zvar
from linpole.germs import RationalGerm, germ_mul, germ_scale, germ_sum
from linpole.poly import Polynomial

_TOKEN = re.compile(r"\s*(?:(\d+)|(z\d+)|([-+*/^()])|(.))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
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
    """Germ plus, when available, its factorisation as coef * prod(form^exp)."""

    __slots__ = ("germ", "coef", "factors")

    def __init__(self, germ: RationalGerm, coef: Optional[Fraction] = None,
                 factors: Optional[dict[LinearForm, int]] = None):
        self.germ = germ
        self.coef = coef
        self.factors = factors

    @property
    def factorable(self) -> bool:
        return self.coef is not None


def _refresh_linear(value: _Value) -> _Value:
    """Detect a constant or a single homogeneous linear form after +/-."""
    g = value.germ
    if not g.is_holomorphic():
        return _Value(g)
    if g.numerator.is_constant():
        return _Value(g, g.numerator.constant_term(), {})
    if g.numerator.degree() == 1 and not g.numerator.constant_term():
        form = LinearForm({v: g.numerator.partial(v).constant_term()
                           for v in g.numerator.support()})
        prim, scalar = form.primitive()
        return _Value(g, scalar, {prim: 1})
    return _Value(g)


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
        v = self.term()
        terms = [v.germ]
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                g = self.term().germ
                terms.append(g if val == "+" else germ_scale(g, -1))
            elif len(terms) == 1:
                return v
            else:
                return _refresh_linear(_Value(germ_sum(terms)))

    def term(self) -> _Value:
        v = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "*":
                    g = germ_mul(v.germ, rhs.germ)
                    if v.factorable and rhs.factorable:
                        factors = dict(v.factors)
                        for f, e in rhs.factors.items():
                            factors[f] = factors.get(f, 0) + e
                        v = _Value(g, v.coef * rhs.coef, factors)
                    else:
                        v = _Value(g)
                else:
                    v = _divide(v, rhs, pos)
            else:
                return v

    def unary(self) -> _Value:
        negate = False
        while self.peek()[1] == "-":  # iterative: no recursion per sign
            self.next()
            negate = not negate
        v = self.power()
        if negate:
            g = germ_scale(v.germ, -1)
            v = _Value(g, -v.coef, dict(v.factors)) if v.factorable else _Value(g)
        return v

    def power(self) -> _Value:
        v = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind2, k, pos2 = self.next()
                if kind2 != "int" or k < 0:
                    raise ParseError("exponent must be a nonnegative integer", pos2)
                g = v.germ
                out = RationalGerm(g.numerator ** k, [(f, e * k) for f, e in g.denominator])
                if v.factorable:
                    v = _Value(out, v.coef ** k, {f: e * k for f, e in v.factors.items()})
                else:
                    v = _Value(out)
            else:
                return v

    def atom(self) -> _Value:
        kind, val, pos = self.next()
        if kind == "int":
            return _Value(RationalGerm(Polynomial.constant(val)), Fraction(val), {})
        if kind == "var":
            if val < 1:
                raise ParseError("variable index must be positive", pos)
            return _Value(RationalGerm(Polynomial.variable(val)), Fraction(1), {zvar(val): 1})
        if kind == "op" and val == "(":
            self.depth += 1
            limit("parentheses nesting", self.depth, "parentheses nesting",
                  lambda message: ParseError(message, pos))
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return v
        raise ParseError(f"unexpected token {val!r}", pos)


def _divide(lhs: _Value, rhs: _Value, pos: int) -> _Value:
    if not rhs.factorable:
        raise NonHomogeneousPole(
            "divisor is not a product of homogeneous linear forms")
    if rhs.coef == 0:
        raise ZeroDivisionError("division by zero")
    g = RationalGerm(lhs.germ.numerator * (1 / rhs.coef),
                     list(lhs.germ.denominator) + list(rhs.factors.items()))
    if lhs.factorable:
        factors = dict(lhs.factors)
        for f, e in rhs.factors.items():
            factors[f] = factors.get(f, 0) - e
        return _Value(g, lhs.coef / rhs.coef, factors)
    return _Value(g)


def parse_germ(text: str) -> RationalGerm:
    """Parse a germ expression; affine or nonlinear pole factors are rejected."""
    return _Parser(text).parse().germ
