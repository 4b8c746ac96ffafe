"""Surface syntax: parse text to polynomials, print polynomials canonically.

Grammar (one-token lookahead, whitespace insignificant between tokens):

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    base     := rational | derivvar | '(' expr ')'
    derivvar := ident "'"* | ident '^(' nat ')'
    rational := nat ('/' nat)?
    ident    := ASCII lowercase letter, then ASCII lowercase letters or digits

There is no implicit multiplication and '^' binds tighter than '*'.
Parentheses nest at most 100 deep (``_MAX_NESTING``).
``y'''`` and ``y^(3)`` denote the same variable; the printer uses primes
up to order 3 and the caret form above.  Canonical output lists terms in
descending monomial order with reduced fractional coefficients; the zero
polynomial prints as "0".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExponentOutOfRange, ParseError
from .polynomials import _IDENT_RE, Context, DerivVar, DiffPoly, monomial_key

_WORD_MAX = 2**63 - 1
# Each open parenthesis costs four parser frames; this keeps deep input
# far from the interpreter's recursion limit.
_MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        # Identifiers are exactly the names a Context can declare.
        ident = _IDENT_RE.match(text, i)
        if ident:
            tokens.append(_Token("ident", ident.group(), i))
            i = ident.end()
            continue
        if ch in "'^()*+-/":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(i, "a token", repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != symbol:
            raise ParseError(tok.pos, repr(symbol), tok.text or "end of input")
        return tok

    def at_op(self, symbol: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == symbol

    def parse_nat(self, what: str) -> int:
        tok = self.take()
        if tok.kind != "number":
            raise ParseError(tok.pos, what, tok.text or "end of input")
        try:
            value = int(tok.text)
        except ValueError:  # more digits than int() converts: out of range
            value = _WORD_MAX + 1
        if value > _WORD_MAX:
            raise ExponentOutOfRange(f"{what} {tok.text} at position {tok.pos}")
        return value

    def parse_expr(self) -> DiffPoly:
        negate = False
        if self.at_op("-"):
            self.take()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.at_op("+") or self.at_op("-"):
            op = self.take().text
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> DiffPoly:
        result = self.parse_factor()
        while self.at_op("*"):
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> DiffPoly:
        base = self.parse_base()
        if self.at_op("^"):
            caret = self.take()
            if self.at_op("("):
                raise ParseError(caret.pos + 1, "an exponent", "'('")
            return base ** self.parse_nat("an exponent")
        return base

    def parse_base(self) -> DiffPoly:
        tok = self.peek()
        if tok.kind == "number":
            return self.parse_rational()
        if tok.kind == "ident":
            return self.parse_derivvar()
        if tok.kind == "op" and tok.text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(tok.pos, f"at most {_MAX_NESTING} nested parentheses", "'('")
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(tok.pos, "a number, variable or '('", tok.text or "end of input")

    def parse_rational(self) -> DiffPoly:
        numerator = self.parse_nat("an integer")
        if self.at_op("/"):
            slash = self.take()
            denominator = self.parse_nat("a denominator")
            if denominator == 0:
                raise ParseError(slash.pos + 1, "a positive denominator", "0")
            return self.ctx.constant(Fraction(numerator, denominator))
        return self.ctx.constant(numerator)

    def parse_derivvar(self) -> DiffPoly:
        tok = self.take()
        self.ctx.index(tok.text)  # UnknownIndeterminate for undeclared names
        order = 0
        while self.at_op("'"):
            self.take()
            order += 1
        if order == 0 and self.at_op("^") and self.peek(1).text == "(":
            self.take()  # ^
            self.take()  # (
            order = self.parse_nat("a derivative order")
            self.expect_op(")")
        return self.ctx.var(tok.text, order)


def parse_poly(text: str, ctx: Context) -> DiffPoly:
    """Parse surface syntax into a differential polynomial."""
    parser = _Parser(text, ctx)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.pos, "end of input", trailing.text)
    return result


def render_var(var: DerivVar) -> str:
    if var.order <= 3:
        return var.name + "'" * var.order
    return f"{var.name}^({var.order})"


def _render_power(var: DerivVar, exponent: int) -> str:
    body = render_var(var)
    if exponent == 1:
        return body
    if var.order > 0:
        body = f"({body})"
    return f"{body}^{exponent}"


def _render_monomial(
    ranked: tuple[tuple[int, int, int], ...], magnitude: Fraction, ctx: Context
) -> str:
    # ``ranked`` is the descending (index, order, exp) tuple of monomial_key;
    # reversed, it lists the factors by (declaration index, order).
    if not ranked:
        return str(magnitude)
    parts = [
        _render_power(DerivVar(ctx.names[i], order), exp)
        for i, order, exp in reversed(ranked)
    ]
    if magnitude != 1:
        parts.insert(0, str(magnitude))
    return "*".join(parts)


def format_poly(p: DiffPoly) -> str:
    """Canonical text: descending monomial order, reduced coefficients."""
    if p.is_zero:
        return "0"
    ordered = sorted(
        ((monomial_key(mono, p.ctx), coeff) for mono, coeff in p.terms.items()),
        key=lambda kc: kc[0],
        reverse=True,
    )
    pieces: list[str] = []
    for i, ((_, ranked), coeff) in enumerate(ordered):
        body = _render_monomial(ranked, abs(coeff), p.ctx)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)
