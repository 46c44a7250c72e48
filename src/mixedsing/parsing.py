"""Concrete syntax for mixed polynomials.

Grammar (whitespace between tokens is ignored)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := postfix ('^' INTEGER)?
    postfix := atom '~'*
    atom    := '(' expr ')' | 'conj' '(' expr ')' | VARIABLE | RATIONAL | 'i'
    RATIONAL := INTEGER ('/' INTEGER)?

plus the dedicated zero form "0 (n=K)" emitted by the formatter.  conj(...)
and the '~' postfix are elaborated at parse time via the exact conjugation
operation, so no conjugation nodes survive; the result is always a plain
MixedPolynomial.

Every rejection raises ParseError carrying the byte offset of the offending
token.  Exponents are capped at 64, variable counts at 8, and every product
and power at 10,000 terms, bounded before it is expanded; this is a desk
calculator, not a CAS.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .core import CR_I, ComplexRational, MixedPolynomial, _cleared, _grlex

__all__ = ["ParseError", "SourceExpr", "parse_mixed", "parse", "format_mixed"]

MAX_EXPONENT = 64
MAX_VARIABLES = 8
MAX_TERMS = 10_000
_RESERVED = {"i", "conj"}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_ZERO_FORM_RE = re.compile(r"^\s*0\s*\(n=([0-9]+)\)\s*$")


class ParseError(Exception):
    """Rejection of a source expression, with the offending position."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"at position {position}: {message}")


@dataclass(frozen=True)
class SourceExpr:
    """Expression text together with its declared variable names."""

    text: str
    variable_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.variable_names)
        object.__setattr__(self, "variable_names", names)
        if not names:
            raise ParseError(0, "at least one variable must be declared")
        if len(names) > MAX_VARIABLES:
            raise ParseError(0, f"too many variables ({len(names)} > {MAX_VARIABLES})")
        if len(set(names)) != len(names):
            raise ParseError(0, f"duplicate variable names in {names}")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ParseError(0, f"invalid variable name {name!r}")
            if name in _RESERVED:
                raise ParseError(0, f"variable name {name!r} is reserved")


@dataclass
class _Token:
    kind: str  # INT IDENT OP END
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()~/":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(_Token("INT", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(_Token("END", "", n))
    return tokens


@dataclass
class _Parser:
    tokens: list[_Token]
    variables: dict[str, int]
    n_vars: int
    pos: int = field(default=0)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "OP" or tok.value != op:
            raise ParseError(tok.pos, f"expected {op!r}, found {tok.value or 'end of input'!r}")
        return tok

    # grammar ----------------------------------------------------------------

    def expr(self) -> MixedPolynomial:
        value = self.term()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.next()
            rhs = self.term()
            value = value + rhs if op.value == "+" else value - rhs
        return value

    def term(self) -> MixedPolynomial:
        value = self.unary()
        while self.peek().kind == "OP" and self.peek().value == "*":
            op = self.next()
            rhs = self.unary()
            _check_terms(op, len(_cleared(value)[1]) * len(_cleared(rhs)[1]))
            value = value * rhs
        return value

    def unary(self) -> MixedPolynomial:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> MixedPolynomial:
        value = self.postfix()
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "^":
            self.next()
            e = self.next()
            if e.kind != "INT":
                raise ParseError(e.pos, "exponent must be a nonnegative integer literal")
            exponent = int(e.value)
            if exponent > MAX_EXPONENT:
                raise ParseError(e.pos, f"exponent {exponent} exceeds bound {MAX_EXPONENT}")
            if value.is_zero and not exponent:
                raise ParseError(e.pos, "0^0 is undefined")
            _check_terms(tok, _power_terms_bound(value, exponent))
            value = value ** exponent
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "^":
                raise ParseError(nxt.pos, "chained '^' is not allowed; parenthesize")
        return value

    def postfix(self) -> MixedPolynomial:
        value = self.atom()
        while self.peek().kind == "OP" and self.peek().value == "~":
            self.next()
            value = value.conjugate()
        return value

    def atom(self) -> MixedPolynomial:
        tok = self.next()
        if tok.kind == "OP" and tok.value == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if tok.kind == "IDENT":
            if tok.value == "conj":
                self.expect_op("(")
                value = self.expr()
                self.expect_op(")")
                return value.conjugate()
            if tok.value == "i":
                return MixedPolynomial.constant(CR_I, self.n_vars)
            j = self.variables.get(tok.value)
            if j is None:
                raise ParseError(tok.pos, f"unknown identifier {tok.value!r}")
            return MixedPolynomial.variable(j, self.n_vars)
        if tok.kind == "INT":
            num = int(tok.value)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "/":
                self.next()
                den_tok = self.next()
                if den_tok.kind != "INT":
                    raise ParseError(den_tok.pos, "denominator must be an integer literal")
                den = int(den_tok.value)
                if den == 0:
                    raise ParseError(den_tok.pos, "zero denominator")
                return MixedPolynomial.constant(Fraction(num, den), self.n_vars)
            return MixedPolynomial.constant(num, self.n_vars)
        raise ParseError(tok.pos, f"unexpected {tok.value or 'end of input'!r}")


def _power_terms_bound(F: MixedPolynomial, e: int) -> int:
    """An upper bound on the terms of F ** e: the multinomial count
    C(e+m-1, m-1) for m terms, or the product over the generators of
    e * deg + 1 when that is smaller (dense bases in few variables)."""
    monoms = _cleared(F)[1]
    m = len(monoms)
    if m <= 1:
        return m
    grid = math.prod(e * max(col) + 1 for col in zip(*monoms))
    return min(math.comb(e + m - 1, m - 1), grid)


def _check_terms(op: _Token, bound: int) -> None:
    """Refuse, at the operator, a product or power that may exceed MAX_TERMS."""
    if bound > MAX_TERMS:
        raise ParseError(
            op.pos, f"{op.value!r} may give up to {bound} terms, over the cap of {MAX_TERMS}"
        )


def parse_mixed(src: SourceExpr) -> MixedPolynomial:
    """Parse a source expression into a canonical MixedPolynomial."""
    n = len(src.variable_names)
    m = _ZERO_FORM_RE.match(src.text)
    if m:
        k = int(m.group(1))
        if k != n:
            raise ParseError(
                src.text.index("("), f"zero form declares n={k} but {n} variables are declared"
            )
        return MixedPolynomial.zero(n)
    tokens = _tokenize(src.text)
    parser = _Parser(tokens, {name: j for j, name in enumerate(src.variable_names)}, n)
    value = parser.expr()
    end = parser.next()
    if end.kind != "END":
        raise ParseError(end.pos, f"trailing input {end.value!r}")
    return value


def parse(text: str, variables) -> MixedPolynomial:
    """Convenience wrapper: parse(text, ("x", "y"))."""
    return parse_mixed(SourceExpr(text, tuple(variables)))


# formatting -------------------------------------------------------------------


def _ratio_str(x: int, d: int) -> str:
    """x / d in lowest terms, d > 0."""
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _pair_str(x: int, y: int, d: int) -> tuple[bool, str]:
    """Render the coefficient (x + y*i) / d; returns (display_negative, body)."""
    if not y:
        return x < 0, _ratio_str(abs(x), d)
    imag = "i" if abs(y) == d else f"{_ratio_str(abs(y), d)}*i"
    if not x:
        return y < 0, imag
    # mixed coefficient: parenthesized, sign kept inside
    return False, f"({_ratio_str(x, d)}{'+' if y > 0 else '-'}{imag})"


def format_mixed(F: MixedPolynomial) -> str:
    """Canonical textual form, round-trippable through parse with z1..zn.

    Terms appear in descending graded-lex order on (nu, mu); the zero
    polynomial formats as "0 (n=K)" so the dimension survives.  Each
    coefficient is printed from the store's integer parts over d.
    """
    n = F.n_vars
    if F.is_zero:
        return f"0 (n={n})"
    d, p = _cleared(F)
    # factor order z1, z1~, z2, z2~, ... as (index in the monomial, name)
    names = [(i, f"z{j + 1}{'~' * (i >= n)}") for j in range(n) for i in (j, n + j)]
    chunks: list[str] = []
    for m in sorted(p, key=_grlex, reverse=True):
        negative, body = _pair_str(*p[m], d)
        mon = "*".join(s if m[i] == 1 else f"{s}^{m[i]}" for i, s in names if m[i])
        piece = body if not mon else f"{body}*{mon}"
        if not chunks:
            chunks.append(f"-{piece}" if negative else piece)
        else:
            chunks.append(f" {'-' if negative else '+'} {piece}")
    return "".join(chunks)


def format_scalar(c: ComplexRational) -> str:
    """One exact coefficient as expression text, e.g. "-3/2", "i", "(1+2*i)"."""
    (x, b), (y, e) = c.re.as_integer_ratio(), c.im.as_integer_ratio()
    negative, body = _pair_str(x * e, y * b, b * e)
    return f"-{body}" if negative else body
