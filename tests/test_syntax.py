"""Grammar coverage, canonical printing, and round trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffalg import (
    Context,
    DerivVar,
    DiffAlgError,
    DiffPoly,
    ExponentOutOfRange,
    Monomial,
    ParseError,
    UnknownIndeterminate,
    format_poly,
    parse_poly,
)
from diffalg.syntax import (
    _MEMO_CHARS,
    _descend,
    _memo_factor_key,
    _read_canonical,
    _render_power,
)

from test_polynomials import WIDE, _polys_over, monomial_key, polys

CTX = Context("u", "y")


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


def mono(*factors) -> Monomial:
    return Monomial(tuple((DerivVar(n, o), e) for n, o, e in factors))


class TestParse:
    def test_denotation(self):
        p = P("y'' * y - (y')^2")
        assert p.terms == {
            mono(("y", 2, 1), ("y", 0, 1)): Fraction(1),
            mono(("y", 1, 2)): Fraction(-1),
        }

    def test_caret_and_primes_agree(self):
        assert P("y^(3)") == P("y'''")
        assert P("y^(0)") == P("y")

    def test_rational_coefficients(self):
        p = P("3/4 * u' + 2")
        assert p.terms == {mono(("u", 1, 1)): Fraction(3, 4), Monomial(): Fraction(2)}

    def test_unary_minus(self):
        assert P("-y + 3") == 3 - P("y")
        assert P("- 4*y") == -4 * P("y")
        assert P("(-y + 1) * 2") == 2 - 2 * P("y")

    def test_power_binds_tighter_than_product(self):
        assert P("2*y^2") == 2 * P("y") ** 2

    def test_primed_power(self):
        assert P("y'^2") == P("(y')^2")

    def test_high_order_power(self):
        assert P("y^(4)^2") == CTX.var("y", 4) ** 2

    def test_zero_exponent(self):
        assert P("y^0") == CTX.one()

    def test_whitespace_insignificant(self):
        assert P("  y ''   *u ") == P("y''*u")

    def test_other_decimal_digits_accepted(self):
        assert P("٣*y") == 3 * P("y")

    def test_unicode_whitespace_skipped(self):
        assert P("y\u00a0+\u2003u\x1c") == P("y + u")
        assert P("\u2003 y'\u00a0*\x1cu ") == P("y'*u")

    def test_fullwidth_digit_is_a_digit(self):
        assert P("\uff11*y") == P("y")
        assert P("y^\uff12 + \uff11\uff12") == P("y^2 + 12")

    def test_sum_drops_and_restores_a_cancelled_term(self):
        assert P("y - y + y") == P("y")
        assert format_poly(P("y - y + y")) == "y"
        assert P("u + y - u - y").is_zero

    def test_zero_coefficient_terms_dropped(self):
        assert P("0*u + y") == P("y")
        assert P("0*u + y").terms == {mono(("y", 0, 1)): Fraction(1)}


class TestRejection:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "y +",
            "(y",
            "y)",
            "2y",
            "y * * u",
            "y^",
            "y ^ (",
            "(y+1)^(2)",
            "y'^(2)",
            "3/0",
            "1 @ 2",
            "y..",
            "--y",
            "3 + -4",
            "²",
            "2²",
            "y^²",
            "y^(²)",
            "y²",
            "é",
            "yé",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            P(text)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("", ("parse-error", 0, "a number, variable or '('", "end of input")),
            ("y +", ("parse-error", 3, "a number, variable or '('", "end of input")),
            ("(y", ("parse-error", 2, "')'", "end of input")),
            ("y)", ("parse-error", 1, "end of input", ")")),
            ("2y", ("parse-error", 1, "end of input", "y")),
            ("y * * u", ("parse-error", 4, "a number, variable or '('", "*")),
            ("y^", ("parse-error", 2, "an exponent", "end of input")),
            ("y ^ (", ("parse-error", 5, "a derivative order", "end of input")),
            ("(y+1)^(2)", ("parse-error", 6, "an exponent", "'('")),
            ("y'^(2)", ("parse-error", 3, "an exponent", "'('")),
            ("3/0", ("parse-error", 2, "a positive denominator", "0")),
            ("1 @ 2", ("parse-error", 2, "a token", "'@'")),
            ("y..", ("parse-error", 1, "a token", "'.'")),
            ("--y", ("parse-error", 1, "a number, variable or '('", "-")),
            ("3 + -4", ("parse-error", 4, "a number, variable or '('", "-")),
            ("²", ("parse-error", 0, "a token", "'²'")),
            ("2²", ("parse-error", 1, "a token", "'²'")),
            ("y^²", ("parse-error", 2, "a token", "'²'")),
            ("y^(²)", ("parse-error", 3, "a token", "'²'")),
            ("y²", ("parse-error", 1, "a token", "'²'")),
            ("é", ("parse-error", 0, "a token", "'é'")),
            ("yé", ("parse-error", 1, "a token", "'é'")),
            ("y + )", ("parse-error", 4, "a number, variable or '('", ")")),
            ("w + 1", ("unknown-indeterminate", None, None, None)),
            ("y^(3]", ("parse-error", 4, "a token", "']'")),
            # The whole text is tokenized first: a stray character is
            # reported even after an earlier grammar error.
            ("y + ) @", ("parse-error", 6, "a token", "'@'")),
            ("y^9223372036854775808", ("exponent-out-of-range", None, None, None)),
            (
                "y^4611686018427387904*y^4611686018427387904",
                ("exponent-out-of-range", None, None, None),
            ),
        ],
    )
    def test_error_fields(self, text, error):
        with pytest.raises(DiffAlgError) as excinfo:
            P(text)
        exc = excinfo.value
        fields = tuple(getattr(exc, name, None) for name in ("position", "expected", "found"))
        assert (exc.slug, *fields) == error

    def test_undeclared_identifier(self):
        with pytest.raises(UnknownIndeterminate):
            P("w + 1")

    def test_exponent_out_of_range(self):
        with pytest.raises(ExponentOutOfRange):
            P(f"y^{2**64}")
        with pytest.raises(ExponentOutOfRange):
            P(f"y^({2**64})")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            P("y + )")
        assert excinfo.value.position == 4

    def test_nesting_bound(self):
        assert P("(" * 100 + "y" + ")" * 100) == P("y")
        with pytest.raises(ParseError) as excinfo:
            P("(" * 101 + "y" + ")" * 101)
        assert excinfo.value.position == 100


class TestFormat:
    def test_zero(self):
        assert format_poly(CTX.zero()) == "0"

    def test_single_term(self):
        assert format_poly(P("4*y'")) == "4*y'"

    def test_descending_canonical_order(self):
        assert format_poly(P("(y')^2 - 4*y")) == "(y')^2 - 4*y"
        assert format_poly(P("- 4*y + (y')^2")) == "(y')^2 - 4*y"

    def test_unit_coefficients_suppressed(self):
        assert format_poly(P("1*y")) == "y"
        assert format_poly(P("-1*y + 1")) == "-y + 1"

    def test_fractions_and_caret_orders(self):
        assert format_poly(P("3/4*u' - y^(5)")) == "-y^(5) + 3/4*u'"
        assert format_poly(CTX.var("y", 4) ** 2) == "(y^(4))^2"

    def test_factors_in_declaration_order(self):
        assert format_poly(P("y'*u")) == "u*y'"
        # Declaration order, not name order.
        text = "u*y + y^2 + u^2 + u' + y'"
        assert format_poly(parse_poly(text, Context("y", "u"))) == (
            "u^2 + y*u + y^2 + u' + y'"
        )
        assert format_poly(P(text)) == "y^2 + u*y + u^2 + y' + u'"


class TestRoundTrip:
    @given(polys)
    def test_parse_after_format(self, p):
        assert parse_poly(format_poly(p), CTX) == p

    @given(polys)
    def test_format_idempotent(self, p):
        text = format_poly(p)
        assert format_poly(parse_poly(text, CTX)) == text

    def test_fixture_strings_are_stable(self):
        for text in ("(y')^2 - 4*y", "u*y' - 1", "2*y'*y'' - 4*y'", "0", "u^2"):
            assert format_poly(P(text)) == text


class TestPinnedEdgeCases:
    @pytest.mark.parametrize(
        "text, printed",
        [
            ("0*y^9223372036854775807*y", "0"),
            ("0^0", "1"),
            ("(y - y)^0", "1"),
            ("(1/2*y')^3", "1/8*(y')^3"),
            ("y'^2", "(y')^2"),
            ("٣*y", "3*y"),
            ("y + y - 2*y", "0"),
            ("0/5*y", "0"),
        ],
    )
    def test_value(self, text, printed):
        assert format_poly(P(text)) == printed

    @pytest.mark.parametrize(
        "text",
        [
            "y^9223372036854775807*y*0",
            "(y^4611686018427387904)^2",
            "(2*u*y^4611686018427387904)^2",
            "y^9223372036854775807*y^9223372036854775807*y^2",
            "y^9223372036854775808",
            "y^4611686018427387904*y^4611686018427387904",
            "y^(2048)",
        ],
    )
    def test_exponent_out_of_range(self, text):
        with pytest.raises(ExponentOutOfRange):
            P(text)


# Expression trees rendered to surface text, against the same tree evaluated
# with DiffPoly arithmetic.  Levels: a sum, a product, a power, a base; a
# child below its operand's level is wrapped in parentheses.
SUM, PRODUCT, POWER, BASE = range(4)


def _leaves(ctx: Context):
    number = st.one_of(
        st.integers(0, 20), st.fractions(min_value=0, max_value=20, max_denominator=6)
    ).map(lambda q: ("num", q))
    var = st.tuples(
        st.just("var"), st.sampled_from(ctx.names), st.integers(0, 5), st.booleans()
    )
    return number | var


def _trees(ctx: Context):
    return st.recursive(
        _leaves(ctx),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
            st.tuples(st.just("neg"), sub),
            st.tuples(st.just("pow"), sub, st.integers(0, 3)),
            st.tuples(st.just("paren"), sub),
        ),
        max_leaves=8,
    )


def _render(tree, level: int = SUM) -> str:
    kind = tree[0]
    if kind == "num":
        text, own = str(tree[1]), BASE
    elif kind == "var":
        _, name, order, caret = tree
        text, own = (f"{name}^({order})" if caret else name + "'" * order), BASE
    elif kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        text, own = _render(tree[1], SUM) + op + _render(tree[2], PRODUCT), SUM
    elif kind == "neg":
        text, own = "-" + _render(tree[1], PRODUCT), SUM
    elif kind == "mul":
        text, own = _render(tree[1], PRODUCT) + "*" + _render(tree[2], POWER), PRODUCT
    elif kind == "pow":
        text, own = f"{_render(tree[1], BASE)}^{tree[2]}", POWER
    else:
        text, own = f"({_render(tree[1])})", BASE
    return text if own >= level else f"({text})"


def _evaluate(tree, ctx: Context) -> DiffPoly:
    kind = tree[0]
    if kind == "num":
        return ctx.constant(tree[1])
    if kind == "var":
        return ctx.var(tree[1], tree[2])
    if kind == "add":
        return _evaluate(tree[1], ctx) + _evaluate(tree[2], ctx)
    if kind == "sub":
        return _evaluate(tree[1], ctx) + -_evaluate(tree[2], ctx)
    if kind == "neg":
        return -_evaluate(tree[1], ctx)
    if kind == "mul":
        return _evaluate(tree[1], ctx) * _evaluate(tree[2], ctx)
    if kind == "pow":
        return _evaluate(tree[1], ctx) ** tree[2]
    return _evaluate(tree[1], ctx)


def _size_bound(tree) -> int:
    """An upper bound on the terms of the evaluated tree."""
    kind = tree[0]
    if kind in ("num", "var"):
        return 1
    if kind in ("add", "sub"):
        return _size_bound(tree[1]) + _size_bound(tree[2])
    if kind == "mul":
        return _size_bound(tree[1]) * _size_bound(tree[2])
    if kind == "pow":
        return _size_bound(tree[1]) ** tree[2]
    return _size_bound(tree[1])


class TestParserOracle:
    """parse_poly against DiffPoly arithmetic on random expression trees."""

    @settings(max_examples=300)
    @given(st.one_of(_trees(CTX).map(lambda t: (CTX, t)), _trees(WIDE).map(lambda t: (WIDE, t))))
    def test_parse_equals_evaluation(self, args):
        ctx, tree = args
        assume(_size_bound(tree) <= 500)
        assert parse_poly(_render(tree), ctx) == _evaluate(tree, ctx)


def _reference_format(p: DiffPoly) -> str:
    """Terms sorted by the decoding oracle monomial_key, each factor
    rendered by _render_power."""
    ctx = p.ctx
    pieces = []
    for key in sorted(p._terms, key=lambda key: monomial_key(key, ctx), reverse=True):
        coeff, exps = p._terms[key], dict(ctx._unpack(key))
        factors = sorted(exps, key=lambda v: (ctx.index(v.name), v.order))
        parts = [_render_power(v, exps[v]) for v in factors]
        if abs(coeff) != 1 or not parts:
            parts.insert(0, str(abs(coeff)))
        sign = ("-" if coeff < 0 else "") if not pieces else (" - " if coeff < 0 else " + ")
        pieces.append(sign + "*".join(parts))
    return "".join(pieces) or "0"


def _outcome(read, text: str, ctx: Context):
    """The items of the term map, in order, or the fields of the error."""
    try:
        return list(read(text, ctx).items())
    except DiffAlgError as exc:
        fields = (getattr(exc, name, None) for name in ("position", "expected", "found"))
        return (type(exc), exc.slug, *fields, str(exc))


def _canonical_texts(ctx: Context):
    # Coefficients above 2**63 and exponents below 2**62, so that a product
    # of two factors stays in range and no power expands a sum.
    var, poly = _polys_over(ctx, 5)
    monomial = st.builds(lambda v, e: ctx.var(*v) ** e, var, st.integers(0, 2**62 - 1))
    return st.builds(
        lambda p, m, c: format_poly(p * m * c), poly, monomial, st.integers(1, 2**200)
    )


# Canonical fragments and near misses, joined at random or spliced into
# canonical text.
_FRAGMENTS = [
    "u", "y", "y'''", "y^(4096)", "(y')", "^2", "*", " + ", " - ", "-", "3", "3/0",
    "٣", "  ", "(", ")", "w",
]
_soup = st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)
_spliced = st.builds(
    lambda text, at, soup: text[: at * len(text) // 64] + soup + text[at * len(text) // 64 :],
    _canonical_texts(CTX),
    st.integers(0, 64),
    _soup,
)


class TestCanonicalLane:
    """parse_poly, which reads canonical text without tokens, against the
    recursive descent alone: equal term maps in equal order, or equal errors."""

    @settings(max_examples=400)
    @given(
        st.one_of(
            _canonical_texts(CTX).map(lambda t: (CTX, t)),
            _canonical_texts(WIDE).map(lambda t: (WIDE, t)),
            st.one_of(_soup, _spliced).map(lambda t: (CTX, t)),
        )
    )
    def test_lane_equals_descent(self, args):
        ctx, text = args
        lane = _outcome(lambda t, c: parse_poly(t, c)._terms, text, ctx)
        assert lane == _outcome(_descend, text, ctx)


Y = 1 << 64  # the key of y over (u, y); u is 1 and y' is 1 << 192


class TestCanonicalReaderRows:
    """Pinned inputs of the canonical reader: whether it reads or declines
    the text, and the term map's items in order, recorded before the reader
    summed terms in place.  Each row also equals the descent."""

    @pytest.mark.parametrize(
        "text, names, reads, items",
        [
            # Repeated and cancelling monomials: keys in _collect's order.
            ("u + u", "u,y", True, [(1, 2)]),
            ("u - u + y", "u,y", True, [(Y, 1)]),
            ("y + u - y + u", "u,y", True, [(1, 2)]),
            ("2*u*y - u*y - u*y", "u,y", True, []),
            # Coefficients of 18, 19 and 20 digits.
            (
                "999999999999999999*u - 100000000000000000*y", "u,y", True,
                [(1, 999999999999999999), (Y, -100000000000000000)],
            ),
            (
                "1000000000000000000*u*y + 9999999999999999999", "u,y", True,
                [(Y + 1, 1000000000000000000), (0, 9999999999999999999)],
            ),
            (
                "-12345678901234567890*y' + 10000000000000000000/3", "u,y", True,
                [(1 << 192, -12345678901234567890), (0, Fraction(10000000000000000000, 3))],
            ),
            ("007*u", "u,y", True, [(1, 7)]),
            ("0*u + y", "u,y", True, [(Y, 1)]),
            ("٣*u", "u,y", False, [(1, 3)]),
            (
                "y^(4096)", "y", False,
                (ExponentOutOfRange, "exponent-out-of-range", None, None, None,
                 "order 4096 of y past field 4095"),
            ),
            (
                "w + u", "u,y", False,
                (UnknownIndeterminate, "unknown-indeterminate", None, None, None,
                 "indeterminate 'w' is not declared"),
            ),
        ],
    )
    def test_row(self, text, names, reads, items):
        ctx = Context(*names.split(","))
        assert (_read_canonical(text, ctx) is not None) == reads
        outcome = _outcome(lambda t, c: parse_poly(t, c)._terms, text, ctx)
        assert outcome == items
        assert outcome == _outcome(_descend, text, ctx)


class TestFormatOracle:
    @given(st.one_of(_polys_over(CTX, 5)[1], _polys_over(WIDE, 40)[1]))
    def test_format_equals_reference(self, p):
        assert format_poly(p) == _reference_format(p)


MEMO_CONTEXTS = [Context("u", "y"), Context("y", "u"), Context("u", "v", "y")]

# (names, text, canonical text), recorded before the memo tables.
PRINTED_ROWS = [
    ("u,y", "y' + u", "y' + u"),
    ("y,u", "y' + u", "u + y'"),
    ("u,v,y", "y' + u", "y' + u"),
    ("u,y", "3*(y')^2*u - y^(4)*u'' + 7", "3*u*(y')^2 - u''*y^(4) + 7"),
    ("y,u", "3*(y')^2*u - y^(4)*u'' + 7", "3*(y')^2*u - y^(4)*u'' + 7"),
    ("u,v,y", "3*(y')^2*u - y^(4)*u'' + 7", "3*u*(y')^2 - u''*y^(4) + 7"),
    ("u,y", "-u^2*y + 1/2*y'''^5 - 1/3", "1/2*(y''')^5 - u^2*y - 1/3"),
    ("y,u", "-u^2*y + 1/2*y'''^5 - 1/3", "1/2*(y''')^5 - y*u^2 - 1/3"),
    ("u,v,y", "-u^2*y + 1/2*y'''^5 - 1/3", "1/2*(y''')^5 - u^2*y - 1/3"),
    ("u,y", "(y'*u - y)^2", "u^2*(y')^2 - 2*u*y*y' + y^2"),
    ("y,u", "(y'*u - y)^2", "(y')^2*u^2 - 2*y*y'*u + y^2"),
    ("u,v,y", "(y'*u - y)^2", "u^2*(y')^2 - 2*u*y*y' + y^2"),
]


class TestMemoTables:
    """The lane's factor keys and the printer's powers are memoized across
    calls, keyed by the declared names, in tables of bounded size that
    store no text longer than _MEMO_CHARS."""

    def test_one_factor_text_under_three_contexts(self):
        _memo_factor_key.cache_clear()
        keys = []
        for _ in range(2):
            for ctx in MEMO_CONTEXTS:
                terms = _read_canonical("y'", ctx)
                assert list(terms.items()) == list(_descend("y'", ctx).items())
                keys.append(next(iter(terms)))
        assert keys[:3] == keys[3:] == [1 << 192, 1 << 128, 1 << 320]

    def test_printing_interleaved_across_contexts(self):
        _render_power.cache_clear()
        for _ in range(2):
            for names, text, printed in PRINTED_ROWS:
                ctx = Context(*names.split(","))
                assert format_poly(parse_poly(text, ctx)) == printed

    def test_factor_memo_is_bounded(self):
        _memo_factor_key.cache_clear()
        ctx = Context("u", "y")
        maxsize = _memo_factor_key.cache_info().maxsize
        for e in range(10 * maxsize):
            # Every seventh text is accepted, with leading zeros past the cap.
            zeros = "0" * _MEMO_CHARS if e % 7 == 0 else ""
            assert _read_canonical(f"y^{zeros}{e}", ctx) == {e << 64: 1}
        assert _memo_factor_key.cache_info().currsize <= maxsize
        # A text past the cap is read but never stored; one at the cap is.
        _memo_factor_key.cache_clear()
        for zeros in (10**6, _MEMO_CHARS - 2):
            text = "y^" + "0" * zeros + "7"
            assert len(text) > _MEMO_CHARS
            assert _read_canonical(text, ctx) == {7 << 64: 1}
        assert _memo_factor_key.cache_info().currsize == 0
        at_cap = "y^" + "0" * (_MEMO_CHARS - 3) + "7"
        assert _read_canonical(at_cap, ctx) == {7 << 64: 1}
        assert _memo_factor_key.cache_info().currsize == 1

    def test_wide_keys_are_read_but_not_stored(self):
        # y^(100) over (y) lies in field 100, past the 64 fields a stored
        # key may span.
        ctx = Context("y")
        for _ in range(2):
            assert _read_canonical("y^(100)", ctx) == {1 << 6400: 1}
        assert _memo_factor_key("y^(100)", ctx.names) is None

    def test_power_memo_is_bounded(self):
        _render_power.cache_clear()
        maxsize = _render_power.cache_info().maxsize
        for e in range(1, 10 * maxsize + 1):
            assert format_poly(parse_poly(f"(y')^{e}", CTX)) == ("y'" if e == 1 else f"(y')^{e}")
        assert _render_power.cache_info().currsize <= maxsize
        # Powers of a name of at most half the cap render within it and are
        # stored; those of a longer name never are.
        for length, stored in [(_MEMO_CHARS, 0), (_MEMO_CHARS // 2, 1)]:
            _render_power.cache_clear()
            name = "z" * length
            p = parse_poly(f"({name}^(4095))^9223372036854775807", Context(name))
            assert (len(format_poly(p)) <= _MEMO_CHARS) == stored
            assert _render_power.cache_info().currsize == stored

    @pytest.mark.parametrize(
        "names, text, error",
        [
            ("u,y", "v' + u", UnknownIndeterminate),
            ("y", "y^(4096)", ExponentOutOfRange),
            ("u,y", "y^99999999999999999999", ExponentOutOfRange),
            ("u,y", "u*u^", ParseError),
        ],
    )
    def test_declined_text_raises_the_descents_error(self, names, text, error):
        ctx = Context(*names.split(","))
        # v' is a key over (u, v, y) first: the memo is keyed by the names.
        assert _read_canonical("v' + u", Context("u", "v", "y")) is not None
        for _ in range(2):
            assert _read_canonical(text, ctx) is None
            with pytest.raises(error) as lane:
                parse_poly(text, ctx)
            with pytest.raises(error) as descent:
                _descend(text, ctx)
            assert str(lane.value) == str(descent.value)
