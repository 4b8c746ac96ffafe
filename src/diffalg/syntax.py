"""Surface syntax: parse text to polynomials, print polynomials canonically.

Tokens are numbers (runs of Unicode decimal digits, ``str.isdecimal``),
identifiers and the operators ``' ^ ( ) * + - /``, separated by optional
Unicode whitespace (``str.isspace``).  Any other character is a parse error,
reported before grammar errors: the whole text is tokenized first.  The
parser builds term maps, not a polynomial per token, and works out a token's
position only to report an error.

Grammar (one-token lookahead):

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    base     := rational | derivvar | '(' expr ')'
    derivvar := ident "'"* | ident '^(' nat ')'
    rational := nat ('/' nat)?
    ident    := ASCII lowercase letter, then ASCII lowercase letters or digits

There is no implicit multiplication and '^' binds tighter than '*'.
Parentheses nest at most 100 deep (``_MAX_NESTING``).  Exponents and
derivative orders stay below 2**63; a numerator or denominator may have as
many significant digits as ``int()`` converts.
``y'''`` and ``y^(3)`` denote the same variable; the printer uses primes
up to order 3 and the caret form above.  Canonical output lists terms in
descending graded lexicographic order with reduced fractional
coefficients; the zero polynomial prints as "0".  The printer decodes each
key once, at one width, by (declaration index, order), and memoizes the
text of each power of a variable across calls.

Text in the printer's own shape is first read by a lane without tokens:
terms joined by exactly " + " or " - " after an optional leading "-", each
an optional ASCII coefficient ``n`` or ``n/d`` and then '*'-joined factors
``x``, ``x`` with primes, ``x^(k)``, ``x^e``, ``(x')^e`` or ``(x^(k))^e``.
The lane splits at the separators and at '*', memoizes the key of each
factor text across calls by (text, declared names), and sums terms in one
map as the descent does.  It declines any other text, and any text on
which the descent would raise; the descent then reads the whole text from
the start.  So every error, with its position and message, comes from the
descent.  Each memo table holds at most 4096 entries, and no text longer
than ``_MEMO_CHARS`` or key wider than ``_MEMO_FIELDS`` fields.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from struct import Struct

from .errors import ExponentOutOfRange, ParseError
from .polynomials import _FIELD, _FIELDS, _GUARDS, _IDENT_RE, Context, DerivVar, DiffPoly, Scalar
from .polynomials import _collect, _graded_order, _power, _product, _scalar

_WORD_MAX = 2**63 - 1
# Each open parenthesis costs four parser frames; this keeps deep input
# far from the interpreter's recursion limit.
_MAX_NESTING = 100

# One alternative per token kind, in priority order; whitespace matches none.
# Identifiers are exactly the names a Context can declare.  A token's kind
# is told by its first character, and one that starts with no digit, letter
# or operator is a stray character.
_TOKEN_RE = re.compile(rf"\d+|{_IDENT_RE.pattern}|['^()*+\-/]|\S")
_OPERATORS = frozenset("'^()*+-/")

# The canonical lane: terms split at exactly " + " or " - ", then factors
# at "*".  A factor is x, x', x^(k), x^e, (x')^e or (x^(k))^e, or a variant
# the descent reads alike, such as x'^e or (x).
_SEPARATOR_RE = re.compile(" ([-+]) ")
_FACTOR_RE = re.compile(
    rf"(\()?({_IDENT_RE.pattern})(?:('+)|\^\(([0-9]+)\))?(?(1)\))(?:\^([0-9]+))?"
)


def _tokenize(text: str) -> list[str]:
    """The text of every token, then "" for the end of input."""
    tokens = _TOKEN_RE.findall(text)
    stray = {t for t in set(tokens) if not (t.isdecimal() or "a" <= t[0] <= "z")} - _OPERATORS
    if stray:
        i = min(map(tokens.index, stray))
        raise ParseError(_start(text, i), "a token", repr(tokens[i]))
    tokens.append("")
    return tokens


def _start(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts; computed only to report an error."""
    return ([m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)])[i]


def _natural(digits: str, word: bool) -> int | None:
    """The value of a run of decimal digits, or None when it is out of range:
    a word (an exponent or a derivative order) above 2**63 - 1, any other
    number with more significant digits than ``int()`` converts
    (``sys.get_int_max_str_digits()``).  Leading zeros, in any script, do
    not count, and ``int()`` never sees more than a word's 19 digits when a
    word is out of range."""
    if len(digits) > 19:
        digits = digits.lstrip("".join(d for d in set(digits) if int(d) == 0)) or "0"
        if word and len(digits) > 19:
            return None
    try:
        value = int(digits)
    except ValueError:  # more digits than int-from-str conversion allows
        return None
    return None if word and value > _WORD_MAX else value


class _Parser:
    """Recursive descent over the token texts; every rule returns a term
    map, packed key to canonical coefficient, and 0 is the empty map."""

    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def fail(self, expected: str, found: str | None = None) -> ParseError:
        """A ParseError at the next token, which is what was found by default."""
        if found is None:
            found = self.tokens[self.i] or "end of input"
        return ParseError(_start(self.text, self.i), expected, found)

    def take(self, symbol: str) -> None:
        """Consume the next token, which must be ``symbol``."""
        if self.tokens[self.i] != symbol:
            raise self.fail(repr(symbol))
        self.i += 1

    def parse_nat(self, what: str, word: bool = True) -> int:
        text = self.tokens[self.i]
        if not text.isdecimal():
            raise self.fail(what)
        value = _natural(text, word)
        if value is None:
            raise ExponentOutOfRange(f"{what} {text} at position {_start(self.text, self.i)}")
        self.i += 1
        return value

    def parse_expr(self) -> dict[int, Scalar]:
        # The signed terms are summed once, at the end.
        tokens = self.tokens
        pairs: list[tuple[int, Scalar]] = []
        negate = tokens[self.i] == "-"
        self.i += negate
        while True:
            term = self.parse_term()
            pairs.extend([(key, -c) for key, c in term.items()] if negate else term.items())
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                return _collect(pairs)
            negate = sign == "-"
            self.i += 1

    def parse_term(self) -> dict[int, Scalar]:
        result = self.parse_factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            result = _product(result, self.parse_factor())
        return result

    def parse_factor(self) -> dict[int, Scalar]:
        base = self.parse_base()
        if self.tokens[self.i] != "^":
            return base
        self.i += 1
        if self.tokens[self.i] == "(":
            raise ParseError(_start(self.text, self.i - 1) + 1, "an exponent", "'('")
        return _power(base, self.parse_nat("an exponent"))

    def parse_base(self) -> dict[int, Scalar]:
        tok = self.tokens[self.i]
        if "a" <= tok[:1] <= "z":
            return self.parse_derivvar()
        if tok.isdecimal():
            return self.parse_rational()
        if tok == "(":
            if self.depth == _MAX_NESTING:
                raise self.fail(f"at most {_MAX_NESTING} nested parentheses", "'('")
            self.i += 1
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise self.fail("a number, variable or '('")

    def parse_rational(self) -> dict[int, Scalar]:
        value = self.parse_nat("an integer", word=False)
        if self.tokens[self.i] == "/":
            self.i += 1
            denominator = self.parse_nat("a denominator", word=False)
            if denominator == 0:
                raise ParseError(_start(self.text, self.i - 2) + 1, "a positive denominator", "0")
            value = _scalar(Fraction(value, denominator))
        return {0: value} if value else {}

    def parse_derivvar(self) -> dict[int, Scalar]:
        name = self.tokens[self.i]
        self.ctx.index(name)  # UnknownIndeterminate for undeclared names
        self.i += 1
        order = 0
        while self.tokens[self.i] == "'":
            self.i += 1
            order += 1
        if order == 0 and self.tokens[self.i] == "^" and self.tokens[self.i + 1] == "(":
            self.i += 2
            order = self.parse_nat("a derivative order")
            self.take(")")
        return self.ctx._var_terms(name, order)


# The longest text and the widest key, in fields, that a memo table stores.
_MEMO_CHARS = 64
_MEMO_FIELDS = 64


def _factor_key(text: str, names: tuple[str, ...]) -> int | None:
    """The packed key of one canonical factor over ``names``, or None to
    decline it."""
    m = _FACTOR_RE.fullmatch(text)
    if m is None:
        return None
    _, name, primes, caret, exponent = m.groups()
    order = len(primes) if primes else _natural(caret, word=True) if caret else 0
    power = _natural(exponent, word=True) if exponent else 1
    if order is None or power is None or name not in names:
        return None
    field = order * len(names) + names.index(name)
    return power << _FIELD * field if field < _FIELDS else None


@lru_cache(maxsize=4096)
def _memo_factor_key(text: str, names: tuple[str, ...]) -> int | None:
    """``_factor_key``, memoized; None also for a key past ``_MEMO_FIELDS``
    fields, which is read again on each use."""
    key = _factor_key(text, names)
    return None if key is None or key >> _FIELD * _MEMO_FIELDS else key


def _coefficient(text: str) -> Scalar | None:
    """The value of an ASCII ``n`` or ``n/d``, or None to decline it."""
    numerator, slash, denominator = text.partition("/")
    if not (text.isascii() and numerator.isdigit() and (denominator.isdigit() or not slash)):
        return None
    value = _natural(numerator, word=False)
    if not slash:
        return value
    divisor = _natural(denominator, word=False)
    return _scalar(Fraction(value, divisor)) if value is not None and divisor else None


def _read_canonical(text: str, ctx: Context) -> dict[int, Scalar] | None:
    """The term map of text in the printer's shape, or None to decline it.

    Reads terms joined by " + " or " - " after an optional leading "-",
    each an optional coefficient and then factors joined by "*".  The key
    of a factor text of at most ``_MEMO_CHARS`` characters is memoized.
    Declines wherever the descent could raise, so errors come only from the
    descent."""
    names = ctx.names
    negate = text[:1] == "-"
    pieces = _SEPARATOR_RE.split(text[negate:])
    terms: dict[int, Scalar] = {}
    for j in range(0, len(pieces), 2):
        if j:
            negate = pieces[j - 1] == "-"
        factors = pieces[j].split("*")
        c: Scalar | None = 1
        if "0" <= factors[0][:1] <= "9":
            d = factors.pop(0)  # int() applies no digit limit below 10**18
            c = int(d) if len(d) <= 18 and d.isdigit() and d.isascii() else _coefficient(d)
            if c is None:
                return None
        key = 0
        for factor in factors:
            k = _memo_factor_key(factor, names) if len(factor) <= _MEMO_CHARS else None
            if k is None:
                k = _factor_key(factor, names)
                if k is None:
                    return None
            key += k
            if key & _GUARDS:  # the descent's product raises
                return None
        if c:
            # Summed as _collect sums: a key that cancels leaves the map.
            c = -c if negate else c
            s = terms[key] + c if key in terms else c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


def _descend(text: str, ctx: Context) -> dict[int, Scalar]:
    """The term map of any text, read by the recursive descent."""
    parser = _Parser(text, ctx)
    terms = parser.parse_expr()
    if parser.tokens[parser.i]:
        raise parser.fail("end of input")
    return terms


def parse_poly(text: str, ctx: Context) -> DiffPoly:
    """Parse surface syntax into a differential polynomial."""
    terms = _read_canonical(text, ctx)
    return DiffPoly._raw(ctx, _descend(text, ctx) if terms is None else terms)


def render_var(var: DerivVar) -> str:
    if var.order <= 3:
        return var.name + "'" * var.order
    return f"{var.name}^({var.order})"


@lru_cache(maxsize=4096)
def _render_power(var: DerivVar, exponent: int) -> str:
    body = render_var(var)
    if exponent == 1:
        return body
    if var.order > 0:
        body = f"({body})"
    return f"{body}^{exponent}"


@lru_cache(maxsize=64)
def _layout(names: tuple[str, ...], orders: int) -> tuple:
    """The variables of keys ``orders`` orders deep over ``names``, by
    (declaration index, order); a picker of their fields, the decoder, the
    width, and the renderer of powers: memoized where each name has at most
    half of ``_MEMO_CHARS`` characters, as parentheses, "^(4095)", "^" and
    19 digits add 29."""
    n = len(names)
    fields = tuple(k * n + i for i in range(n) for k in range(orders))
    pick = itemgetter(*fields) if len(fields) > 1 else tuple
    variables = tuple(DerivVar(names[f % n], f // n) for f in fields)
    memo = max(map(len, names)) <= _MEMO_CHARS // 2
    render = _render_power if memo else _render_power.__wrapped__
    return variables, pick, Struct(f"<{len(fields)}Q").unpack, len(fields) * _FIELD // 8, render


def format_poly(p: DiffPoly) -> str:
    """Canonical text: descending monomial order, reduced coefficients."""
    if p.is_zero:
        return "0"
    names = p.ctx.names
    orders = -(-max(p._terms).bit_length() // (_FIELD * len(names)))
    variables, pick, unpack, size, render = _layout(names, orders)
    pieces: list[str] = []
    order = _graded_order(p.ctx, p._terms)
    for key, coeff in zip(order, map(p._terms.__getitem__, order)):
        exps = pick(unpack(key.to_bytes(size, "little")))
        body = "*".join(map(render, compress(variables, exps), filter(None, exps)))
        magnitude = abs(coeff)
        if magnitude != 1 or not body:
            try:
                body = f"{magnitude}*{body}" if body else str(magnitude)
            except ValueError:  # more digits than int-to-str conversion allows
                limit = sys.get_int_max_str_digits()
                raise ExponentOutOfRange(f"a coefficient of more than {limit} digits") from None
        pieces += (" - " if coeff < 0 else " + ", body)
    pieces[0] = "-" if pieces[0] == " - " else ""  # the first separator is a sign
    return "".join(pieces)
