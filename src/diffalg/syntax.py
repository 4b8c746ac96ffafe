"""Surface syntax: parse text to polynomials, print polynomials canonically.

Tokens are numbers (runs of Unicode decimal digits, ``str.isdecimal``),
identifiers and the operators ``' ^ ( ) * + - /``, separated by optional
Unicode whitespace (``str.isspace``).  Any other character is a parse error,
reported before grammar errors: the whole text is tokenized first.

Grammar (one-token lookahead):

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

import re
from fractions import Fraction

from .errors import ExponentOutOfRange, ParseError
from .polynomials import _IDENT_RE, Context, DerivVar, DiffPoly, _sum, monomial_key

_WORD_MAX = 2**63 - 1
# Each open parenthesis costs four parser frames; this keeps deep input
# far from the interpreter's recursion limit.
_MAX_NESTING = 100

# One alternative per token kind, in priority order; whitespace matches none.
# Identifiers are exactly the names a Context can declare.
_TOKEN_RE = re.compile(
    rf"(?P<number>\d+)|(?P<ident>{_IDENT_RE.pattern})|(?P<op>['^()*+\-/])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of every token, then an ``end`` token."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, tok, pos in tokens:
        if kind == "bad":
            raise ParseError(pos, "a token", repr(tok))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.pos = 0
        self.depth = 0

    def take(self, symbol: str | None = None) -> tuple[str, str, int]:
        """Consume the next token, which must be ``symbol`` when given."""
        tok = self.tokens[self.pos]
        if symbol is not None and tok[1] != symbol:
            raise ParseError(tok[2], repr(symbol), tok[1] or "end of input")
        self.pos += 1
        return tok

    def at(self, symbol: str) -> bool:
        # Only operator tokens spell an operator, and ``end`` spells "".
        return self.tokens[self.pos][1] == symbol

    def parse_nat(self, what: str) -> int:
        kind, text, pos = self.take()
        if kind != "number":
            raise ParseError(pos, what, text or "end of input")
        # Range is judged on the significant digits, so int() never sees
        # more than a machine word's 19 of them.  Leading zeros may be
        # written in any script.
        digits = text
        if len(digits) > 19:
            digits = digits.lstrip("".join(d for d in set(digits) if int(d) == 0)) or "0"
        value = int(digits) if len(digits) <= 19 else _WORD_MAX + 1
        if value > _WORD_MAX:
            raise ExponentOutOfRange(f"{what} {text} at position {pos}")
        return value

    def parse_expr(self) -> DiffPoly:
        # The signed terms are summed once, at the end.
        terms = []
        sign = self.take()[1] if self.at("-") else "+"
        while True:
            term = self.parse_term()
            terms.append(-term if sign == "-" else term)
            if not (self.at("+") or self.at("-")):
                return _sum(self.ctx, terms)
            sign = self.take()[1]

    def parse_term(self) -> DiffPoly:
        result = self.parse_factor()
        while self.at("*"):
            self.pos += 1
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> DiffPoly:
        base = self.parse_base()
        if self.at("^"):
            caret = self.take()
            if self.at("("):
                raise ParseError(caret[2] + 1, "an exponent", "'('")
            return base ** self.parse_nat("an exponent")
        return base

    def parse_base(self) -> DiffPoly:
        kind, text, pos = self.tokens[self.pos]
        if kind == "number":
            return self.parse_rational()
        if kind == "ident":
            return self.parse_derivvar()
        if text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(pos, f"at most {_MAX_NESTING} nested parentheses", "'('")
            self.pos += 1
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise ParseError(pos, "a number, variable or '('", text or "end of input")

    def parse_rational(self) -> DiffPoly:
        numerator = self.parse_nat("an integer")
        if self.at("/"):
            slash = self.take()
            denominator = self.parse_nat("a denominator")
            if denominator == 0:
                raise ParseError(slash[2] + 1, "a positive denominator", "0")
            return self.ctx.constant(Fraction(numerator, denominator))
        return self.ctx.constant(numerator)

    def parse_derivvar(self) -> DiffPoly:
        name = self.take()[1]
        self.ctx.index(name)  # UnknownIndeterminate for undeclared names
        order = 0
        while self.at("'"):
            self.pos += 1
            order += 1
        if order == 0 and self.at("^") and self.tokens[self.pos + 1][1] == "(":
            self.pos += 2
            order = self.parse_nat("a derivative order")
            self.take(")")
        return self.ctx.var(name, order)


def parse_poly(text: str, ctx: Context) -> DiffPoly:
    """Parse surface syntax into a differential polynomial."""
    parser = _Parser(text, ctx)
    result = parser.parse_expr()
    kind, trailing, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(pos, "end of input", trailing)
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
        ((monomial_key(key, p.ctx), coeff) for key, coeff in p._terms.items()),
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
