"""Ring arithmetic, derivation and specialization."""

from __future__ import annotations

import random
import struct
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from diffalg import (
    Context,
    DerivVar,
    DiffPoly,
    ExponentOutOfRange,
    Monomial,
    ReducesIntoIdeal,
    UnknownIndeterminate,
    VanishingResultant,
    as_leader_poly,
    chevalley_witness,
    exact_div,
    format_poly,
    parse_poly,
    resultant,
)
from diffalg.elimination import _pseudo_divide
from diffalg.cli import run
from diffalg.polynomials import _collect, _combination, _degree, _graded_order, _name_mask, _product
from diffalg.reduction import ReductionCertificate, ReductionMode, verify_certificate

import _corpus
from test_elimination import YP, _random_in_leader

CTX = Context("u", "y")


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


def _mono(vars_list):
    factors: dict[DerivVar, int] = {}
    for v in vars_list:
        factors[v] = factors.get(v, 0) + 1
    return Monomial(factors.items())


derivvars = st.builds(
    DerivVar, st.sampled_from(CTX.names), st.integers(min_value=0, max_value=3)
)
monomials = st.lists(derivvars, max_size=3).map(_mono)
coefficients = st.fractions(
    min_value=-9, max_value=9, max_denominator=12
).filter(lambda c: c != 0)
polys = st.dictionaries(monomials, coefficients, max_size=6).map(
    lambda terms: DiffPoly(CTX, terms)
)
u_polys = st.dictionaries(
    st.lists(
        st.builds(DerivVar, st.just("u"), st.integers(min_value=0, max_value=2)),
        max_size=2,
    ).map(_mono),
    coefficients,
    max_size=4,
).map(lambda terms: DiffPoly(CTX, terms))


def _spot_assignment(p: DiffPoly, q: DiffPoly | None = None):
    # Any fixed assignment works: the checked identities hold pointwise.
    vars_seen = p.variables() | (q.variables() if q is not None else set())
    return {
        v: Fraction(2 * CTX.index(v.name) + 3 * v.order + 1, v.order + 2)
        for v in vars_seen
    }


class TestRingOps:
    def test_difference_of_squares(self):
        assert P("(y + 1) * (y - 1)") == P("y^2 - 1")

    @given(polys)
    def test_additive_identity(self, p):
        assert p + CTX.zero() == p

    def test_product_of_monomials_expands(self):
        # (u*y')^2 expanded by hand; cross-checked numerically.
        square = P("u * y'") ** 2
        assert square == P("u^2 * (y')^2")
        sigma = {DerivVar("u", 0): Fraction(3), DerivVar("y", 1): Fraction(-5, 2)}
        assert square.specialize(sigma) == (Fraction(3) * Fraction(-5, 2)) ** 2

    @given(polys, polys, polys)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)

    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys)
    def test_power_matches_repeated_product(self, p):
        assert p ** 0 == CTX.one()
        assert p ** 3 == p * p * p

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            P("y") ** -1

    def test_scalar_mixing(self):
        assert 2 * P("y") + 1 == P("2*y + 1")
        assert Fraction(1, 2) * P("y'") == P("1/2 * y'")

    def test_context_mismatch_rejected(self):
        other = Context("y")
        with pytest.raises(ValueError):
            P("y") + parse_poly("y", other)

    def test_structural_equality_is_mathematical(self):
        assert P("y + y") == P("2*y")
        assert P("y - y").is_zero
        assert DiffPoly(CTX, {Monomial(): Fraction(0)}).is_zero

    def test_zero_coefficients_never_stored(self):
        square = Monomial(((DerivVar("y", 1), 2),))
        assert DiffPoly(CTX, {square: 0}).is_zero
        assert DiffPoly(CTX, {square: 0, Monomial(): 3}).terms == {Monomial(): 3}
        assert (P("y") + P("u") - P("y")).terms == P("u").terms


class TestDelta:
    def test_derivative_of_indeterminate(self):
        assert P("y").delta() == P("y'")

    def test_leibniz_on_square(self):
        assert P("(y')^2").delta() == P("2 * y' * y''")

    def test_term_by_term(self):
        assert P("(y')^2 - 4*y").delta() == P("2*y'*y'' - 4*y'")

    def test_constants_vanish(self):
        assert CTX.constant(Fraction(7, 3)).delta().is_zero
        assert CTX.zero().delta().is_zero

    @given(polys, polys)
    def test_leibniz(self, p, q):
        assert (p * q).delta() == p.delta() * q + p * q.delta()

    @given(polys, polys)
    def test_linearity(self, p, q):
        assert (p + q).delta() == p.delta() + q.delta()

    @given(polys)
    def test_iterated_matches_composed(self, p):
        assert p.delta().delta() == p.delta(2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            P("y").delta(-1)


def _jet(image: DiffPoly, top: int = 4) -> dict[DerivVar, DiffPoly]:
    """Differential substitution y -> image, for orders of y up to ``top``."""
    return {DerivVar("y", k): image.delta(k) for k in range(top + 1)}


class TestEvaluate:
    def test_parabola_point(self):
        sigma = {DerivVar("y", 0): 1, DerivVar("y", 1): 2}
        assert P("(y')^2 - 4*y").specialize(sigma) == 0

    def test_single_variable(self):
        assert P("y''").specialize({DerivVar("y", 2): 7}) == 7

    def test_mixed(self):
        sigma = {DerivVar("u", 0): Fraction(1, 2), DerivVar("y", 1): 4}
        assert P("u*y' + 3").specialize(sigma) == 5

    def test_unlisted_variables_stay(self):
        assert P("u*y' + y").specialize({DerivVar("u", 0): 3}) == P("3*y' + y")
        assert P("u*y'").specialize({DerivVar("w", 0): 1}) == P("u*y'")

    def test_all_listed_at_once(self):
        # Images are not specialized again: y -> u and u -> y swap.
        swap = {DerivVar("y", 0): P("u"), DerivVar("u", 0): P("y")}
        assert P("u^2*y + y'").specialize(swap) == P("y^2*u + y'")

    @given(polys, polys)
    def test_ring_homomorphism(self, p, q):
        sigma = _spot_assignment(p, q)
        assert (p * q).specialize(sigma) == p.specialize(sigma) * q.specialize(sigma)
        assert (p + q).specialize(sigma) == p.specialize(sigma) + q.specialize(sigma)


class TestSubstitute:
    def test_zero_solution(self):
        assert P("y' - y").specialize(_jet(CTX.zero())).is_zero

    def test_relabeling(self):
        assert P("y''").specialize(_jet(P("u"))) == P("u''")

    def test_square_solution(self):
        assert P("(y')^2 - 4*y*(u')^2").specialize(_jet(P("u^2"))).is_zero

    @given(polys, u_polys)
    def test_commutes_with_delta(self, p, image):
        # polys have y-orders up to 3, so their derivatives need the jet to 4.
        assert p.specialize(_jet(image)).delta() == p.delta().specialize(_jet(image))


class TestMonomialAndContext:
    def test_zero_exponents_dropped(self):
        assert Monomial(((DerivVar("y", 0), 0),)) == Monomial()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(((DerivVar("y", 0), -1),))

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            Monomial(((DerivVar("y", 0), 1), (DerivVar("y", 0), 2)))

    def test_zero_exponent_dropped_before_repeat_check(self):
        y = DerivVar("y", 0)
        assert Monomial(((y, 1), (y, 0))) == Monomial(((y, 1),))

    @pytest.mark.parametrize(
        "factor, error",
        [
            ((("y", 0), 1), TypeError),
            ((DerivVar("y", 1.5), 1), TypeError),
            ((DerivVar("y", 0), 1.5), TypeError),
            ((DerivVar("y", 0), Fraction(2)), TypeError),
            ((DerivVar("y", -1), 1), ValueError),
        ],
    )
    def test_malformed_factor_rejected(self, factor, error):
        # Refused by the constructor, so no term map ever holds it.
        with pytest.raises(error):
            Monomial([factor])

    def test_var_order_must_be_a_non_negative_int(self):
        for order in (1.5, Fraction(1), -1):
            with pytest.raises(ValueError):
                CTX.var("y", order)
        assert CTX.var("y", 2) == P("y''")

    def test_equality_ignores_construction_order(self):
        u, y1 = DerivVar("u", 0), DerivVar("y", 1)
        first = Monomial(((u, 2), (y1, 1)))
        second = Monomial(((y1, 1), (u, 2)))
        assert first == second
        assert hash(first) == hash(second)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            Context("u", "u")
        with pytest.raises(ValueError):
            Context("Y")
        with pytest.raises(ValueError):
            Context()

    def test_undeclared_lookup(self):
        with pytest.raises(UnknownIndeterminate):
            CTX.index("w")


class TestExactDiv:
    @given(polys, polys)
    def test_product_quotient(self, p, q):
        if q.is_zero:
            return
        assert exact_div(p * q, q) == p

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            exact_div(P("y + 1"), P("u"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P("y"), CTX.zero())

    @pytest.mark.parametrize(
        "p, q, quotient",
        [
            ("-6*y", "3", "-2*y"),
            ("6*y", "-3", "-2*y"),
            ("-6*y", "-3", "2*y"),
            ("3*y", "2*y", "3/2"),
            ("3/2*y", "3", "1/2*y"),
            ("6*y", "3/2", "4*y"),
            ("3/2*y^2 - 3*y", "3/2*y", "y - 2"),
            ("-4*u*y + 3/2*u", "-2*u", "2*y - 3/4"),
        ],
    )
    def test_quotient_coefficient_types(self, p, q, quotient):
        # An exact integer quotient is an int, any other a reduced Fraction.
        got, want = exact_div(P(p), P(q)).terms, P(quotient).terms
        assert {m: (c, type(c)) for m, c in got.items()} == {
            m: (c, type(c)) for m, c in want.items()
        }


def _all_ints(p: DiffPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


class TestCoefficientTypes:
    """An integral coefficient is stored as an int, any other as a reduced
    Fraction; integer inputs never leave the ints."""

    def test_exact_quotient_is_a_fraction_not_a_float(self):
        (coeff,) = exact_div(P("y"), P("2*y")).terms.values()
        assert type(coeff) is Fraction and coeff == Fraction(1, 2)

    def test_integral_fraction_stored_as_int(self):
        (coeff,) = DiffPoly(CTX, {Monomial(): Fraction(6, 2)}).terms.values()
        assert type(coeff) is int and coeff == 3
        assert _all_ints(P("6/2*y + 4/1")) and _all_ints(CTX.constant(Fraction(3)))

    def test_integral_fraction_equals_int(self):
        # Fraction arithmetic may leave an integral value as a Fraction.
        held = P("1/2") * 6
        assert type(next(iter(held.terms.values()))) is Fraction
        assert held == DiffPoly(CTX, {Monomial(): 3}) == 3
        assert held.terms == CTX.constant(3).terms

    def test_ring_operations_keep_ints(self):
        p, q = P("3*u*(y')^2 - 2*y^2 + 5"), P("u' - 4*y*y'")
        y, u, yp = DerivVar("y", 0), DerivVar("u", 0), DerivVar("y", 1)
        results = [
            p, q, p + q, p - q, -p, p * q, p ** 3, p ** 0, p.delta(), p.delta(3),
            p.partial(yp), p.partial(y), p.specialize({y: 2, u: -3, yp: 7}),
            p.specialize({y: q}), exact_div(p * q, q), exact_div(p ** 2, p),
        ]
        for r in results:
            assert not r.is_zero and _all_ints(r), r

    def test_oracle_resultants_keep_ints(self):
        # The random pairs of TestResultantOracle (tests/test_elimination.py).
        rng = random.Random(43)
        for _ in range(40):
            p = _random_in_leader(rng, rng.randint(1, 4))
            q = _random_in_leader(rng, rng.randint(1, 4))
            assert _all_ints(resultant(as_leader_poly(p, YP), as_leader_poly(q, YP)))

    def test_witnesses_keep_ints(self):
        rng = random.Random(211)
        produced = 0
        while produced < 20:
            A = _corpus.random_irreducible(rng, CTX, "y")
            B = _corpus.random_nonzero(rng, CTX)
            try:
                w = chevalley_witness(B, A, main="y")
            except (ReducesIntoIdeal, VanishingResultant):
                continue
            produced += 1
            cert = w.weak_certificate
            for part in (w.a, w.a1, w.a2, w.a3, w.b1, cert.remainder, *cert.cofactors.values()):
                assert _all_ints(part), (A, B)


def monomial_key(key: int, ctx: Context):
    """Graded lexicographic sort key of a packed key, by decoding it: total
    degree first, then the (declaration index, order, exponent) triples of
    its factors from the highest variable down."""
    n = len(ctx.names)
    size = -(-key.bit_length() // 64)
    exps = struct.unpack(f"<{size}Q", key.to_bytes(8 * size, "little"))
    ranked = sorted([(f % n, f // n, e) for f, e in enumerate(exps) if e], reverse=True)
    return (sum(exps), tuple(ranked))


# Reference arithmetic on ``terms`` views with plain dicts of Monomials.

def _add_exponents(mono: Monomial, changes) -> Monomial:
    """``mono`` with each (variable, change) pair added to its exponents."""
    exps = dict(mono)
    for var, change in changes:
        exps[var] = exps.get(var, 0) + change
    return Monomial(exps.items())


def _ref_collect(pairs) -> dict:
    acc: dict = {}
    for mono, c in pairs:
        acc[mono] = acc.get(mono, 0) + c
    return {mono: c for mono, c in acc.items() if c}


def _power(var: DerivVar, exp: int = 1) -> Monomial:
    return Monomial(((var, exp),))


def _ref_mul(p: DiffPoly, q: DiffPoly) -> dict:
    return _ref_collect(
        (_add_exponents(m1, m2), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )


def _ref_delta(p: DiffPoly) -> dict:
    return _ref_collect(
        (_add_exponents(mono, [(v, -1), (DerivVar(v.name, v.order + 1), 1)]), c * e)
        for mono, c in p.terms.items()
        for v, e in mono
    )


def _ref_partial(p: DiffPoly, var: DerivVar) -> dict:
    return _ref_collect(
        (_add_exponents(mono, [(var, -1)]), c * e)
        for mono, c in p.terms.items()
        if (e := dict(mono).get(var))
    )


def _ref_coefficients(p: DiffPoly, var: DerivVar) -> list[dict]:
    by_power: dict[int, dict] = {}
    for mono, c in p.terms.items():
        e = dict(mono).get(var, 0)
        by_power.setdefault(e, {})[_add_exponents(mono, [(var, -e)])] = c
    return [by_power.get(e, {}) for e in range(max(by_power, default=-1), -1, -1)]


# Ten names with orders up to 40: exponent fields up to number 409.
WIDE = Context(*(f"x{i}" for i in range(10)))


def _polys_over(ctx: Context, max_order: int):
    var = st.builds(DerivVar, st.sampled_from(ctx.names), st.integers(0, max_order))
    return var, st.dictionaries(
        st.lists(var, max_size=3).map(_mono), coefficients, max_size=5
    ).map(lambda terms: DiffPoly(ctx, terms))


def _operands(ctx: Context, max_order: int):
    var, poly = _polys_over(ctx, max_order)
    return st.tuples(poly, poly, var)


operands = st.one_of(_operands(CTX, 3), _operands(WIDE, 40))


@st.composite
def _pair_lists(draw):
    """One to four pairs of polynomials, some the negated copies of others."""
    pairs = draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=4))
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4 - len(pairs))):
        a, b = pairs[i]
        pairs.append((-a, b))
    return draw(st.permutations(pairs))


class TestCombination:
    """``_combination`` sums products in one term map."""

    @given(_pair_lists())
    def test_matches_collected_products(self, pairs):
        maps = [(a._terms, b._terms) for a, b in pairs]
        products = chain.from_iterable(_product(a, b).items() for a, b in maps)
        assert _combination(maps) == _collect(products)

    def test_negated_copies_cancel_to_an_empty_map(self):
        a, b, c = P("3*u*y' - y^2 + 1/2"), P("y'' - 2*u"), P("u*y")
        assert _combination([(a._terms, b._terms), ((-a)._terms, b._terms)]) == {}
        assert _combination(
            [(a._terms, b._terms), (c._terms, a._terms), ((-a)._terms, b._terms)]
        ) == (c * a)._terms

    def test_cancelled_products_still_meet_the_guard_check(self):
        # y^(2^62) * y^(2^62) reaches 2^63; the sum a*b - a*b cancels it,
        # and must raise as computing a*b alone does.
        half = "y^4611686018427387904"
        for a, b in [(P(half), P(half)), (P(f"{half} + u"), P(f"{half}*u' - 1"))]:
            with pytest.raises(ExponentOutOfRange):
                a * b
            with pytest.raises(ExponentOutOfRange):
                _combination([(a._terms, b._terms), ((-a)._terms, b._terms)])
            with pytest.raises(ExponentOutOfRange):
                _combination(
                    [(a._terms, b._terms), (P("u")._terms, P("y")._terms), ((-a)._terms, b._terms)]
                )

    def test_cancelled_pseudo_division_step_still_overflows(self):
        # lc(b)*r_1 - lc(r)*b_1 = Y*2Y - 2Y*Y cancels to zero, but each
        # product reaches u^(2^63).
        Y = P("u^4611686018427387904")
        with pytest.raises(ExponentOutOfRange):
            _pseudo_divide([2 * Y, 2 * Y], [Y, Y])

    def test_cancelled_certificate_identity_still_overflows(self):
        # Y*F - 2Y*A = 0 with F = 2A, but each product reaches u^(2^63).
        Y = P("u^4611686018427387904")
        A = Y * P("y'") + Y
        cert = ReductionCertificate(
            dividend=2 * A, divisor=A, main="y", mode=ReductionMode.FULL,
            m=1, n=0, remainder=CTX.zero(), cofactors={0: 2 * Y},
        )
        with pytest.raises(ExponentOutOfRange):
            verify_certificate(cert)


class TestPackedKeys:
    """Packed integer keys against dict arithmetic on Monomial values."""

    @given(operands)
    def test_operations_match_reference(self, args):
        p, q, var = args
        assert (p * q).terms == _ref_mul(p, q)
        assert (q**3).terms == _ref_mul(q, DiffPoly(q.ctx, _ref_mul(q, q)))
        assert p.delta().terms == _ref_delta(p)
        assert p.partial(var).terms == _ref_partial(p, var)
        assert [c.terms for c in p.coefficients(var)] == _ref_coefficients(p, var)
        assert p.degree_in(var) == max((dict(m).get(var, 0) for m in p.terms), default=0)
        assert p.variables() == {v for m in p.terms for v in dict(m)}
        if not q.is_zero:
            assert exact_div(DiffPoly(p.ctx, _ref_mul(p, q)), q).terms == p.terms
        assert parse_poly(str(p), p.ctx) == p
        assert DiffPoly(p.ctx, p.terms) == p

    def test_borrows_never_fake_divisibility(self):
        for p, q in [("u*y", "y^2"), ("u", "y"), ("y''", "y'")]:
            with pytest.raises(ValueError):
                exact_div(P(p), P(q))

    def test_remainder_past_the_guard_bit_is_no_divisor(self):
        # The first step leaves u^(2^63)*y^2, whose guard bit read as a
        # borrow-free field would divide by y^2 and let the remainder cancel.
        with pytest.raises(ValueError):
            exact_div(P("u^9223372036854775807*y^3 - u*y"), P("y^2 + u*y"))

    def test_computed_exponent_stays_below_two_to_the_63(self):
        top = "9223372036854775807"
        with pytest.raises(ExponentOutOfRange):
            P(f"y'*(y'')^{top}").delta()
        with pytest.raises(ExponentOutOfRange):
            P(f"y^{top}") * P("y")
        # Three factors: a field past its guard bit must not carry into the
        # next field, which holds u' above y and y above u.
        for text in [f"y^{top}*y", f"y^{top}*y^{top}*y^2", f"u^{top}*u^{top}*u^2"]:
            with pytest.raises(ExponentOutOfRange):
                P(text)
        with pytest.raises(ExponentOutOfRange):
            P("y^4611686018427387904") ** 2
        assert str(P("y^4611686018427387903") ** 2) == "y^9223372036854775806"
        assert str(P(f"(y')^{top}").delta()) == f"{top}*(y')^9223372036854775806*y''"
        with pytest.raises(ExponentOutOfRange):
            DiffPoly(CTX, {_power(DerivVar("y", 0), 2**63): 1})

    def test_field_numbers_stay_below_4096(self):
        # Over (u, y), y^(2047) sits in field 4095, the last one.
        last = CTX.var("y", 2047)
        assert str(last) == "y^(2047)" and parse_poly(str(last), CTX) == last
        assert CTX.var("y", 2046).delta() == last
        for build in [
            lambda: CTX.var("y", 2048),
            lambda: CTX.var("u", 2047).delta(),
            lambda: DiffPoly(CTX, {_power(DerivVar("u", 2048)): 1}),
            lambda: P("y^(100000000)"),
        ]:
            with pytest.raises(ExponentOutOfRange):
                build()

    def test_plain_frozenset_key_rejected(self):
        # Only the Monomial constructor checks exponents and repeats.
        with pytest.raises(TypeError):
            DiffPoly(CTX, {frozenset({(DerivVar("y", 0), 1)}): 1})

    def test_undeclared_name_rejected_at_construction(self):
        with pytest.raises(UnknownIndeterminate):
            DiffPoly(CTX, {_power(DerivVar("w", 0)): 1})

    def test_terms_is_a_read_only_view(self):
        terms = P("3*u*y' - y").terms
        uy1 = Monomial(((DerivVar("u", 0), 1), (DerivVar("y", 1), 1)))
        assert isinstance(terms, Mapping) and len(terms) == 2
        assert terms[uy1] == 3 and sorted(terms.values()) == [-1, 3]
        assert _power(DerivVar("y", 0)) in terms
        absent_keys = (
            _power(DerivVar("w", 0)), _power(DerivVar("y", 0), 2), "y", DerivVar("y", 0), 1,
        )
        for absent in absent_keys:
            assert absent not in terms
        with pytest.raises(TypeError):
            terms[uy1] = 1
        assert terms == {uy1: 3, _power(DerivVar("y", 0)): -1}
        # Monomials the context cannot pack: an undeclared name, and y^(4096),
        # whose field lies past 4095.
        for unpackable in (_power(DerivVar("w", 0)), _power(DerivVar("y", 4096))):
            with pytest.raises(KeyError):
                terms[unpackable]
            assert terms.get(unpackable) is None


ORDER_CONTEXTS = [Context("y"), CTX, Context("u", "v", "y"), Context("a", "b", "c", "d", "e")]


@st.composite
def _key_lists(draw):
    """A Context and distinct keys over it, with fields up to 4095.  Fields
    below 12 and exponents up to 3 make ties in degree and in variables
    common.  In about half the examples exponents also reach [2**52,
    2**63 - 1], where a key's degree is no longer read modulo 2**64 - 1."""
    ctx = draw(st.sampled_from(ORDER_CONTEXTS))
    exponent = st.integers(1, 3) | st.integers(1, 2**52 - 1)
    if draw(st.booleans()):
        exponent |= st.integers(2**52, 2**63 - 1)
    field = st.integers(0, 11) | st.integers(0, 4095)
    key = st.dictionaries(field, exponent, max_size=4).map(
        lambda exps: sum(e << 64 * f for f, e in exps.items())
    )
    return ctx, draw(st.lists(key, max_size=8, unique=True))


class TestGradedOrder:
    """``_graded_order`` and ``_degree`` read keys without decoding them;
    the decoding ``monomial_key`` is the oracle."""

    @settings(max_examples=300)
    @given(_key_lists())
    # Equal degrees: y^2 against y*y', which differ in the first name only,
    # and u*v' against u'*v over (u, v, y).
    @example((Context("y"), [2, (1 << 64) + 1]))
    @example((ORDER_CONTEXTS[2], [1 + (1 << 256), (1 << 192) + (1 << 64)]))
    def test_matches_decoding_oracle(self, args):
        ctx, keys = args
        assert _graded_order(ctx, keys) == sorted(
            keys, key=lambda key: monomial_key(key, ctx), reverse=True
        )
        degrees = [monomial_key(key, ctx)[0] for key in keys]
        assert _degree(DiffPoly._raw(ctx, dict.fromkeys(keys, 1))) == max(degrees, default=-1)
        for key, degree in zip(keys, degrees):
            assert _degree(DiffPoly._raw(ctx, {key: 1})) == degree

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_name_masks_cover_every_nth_field(self, n):
        for fields in (1, n, 7, 4096):
            for i in range(n):
                mask = _name_mask(n, fields) << 64 * i
                wanted = sum((1 << 64) - 1 << 64 * f for f in range(i, fields, n))
                assert mask & (1 << 64 * fields) - 1 == wanted
                assert mask >> 64 * fields << 64 * fields == mask - wanted
                assert (mask - wanted).bit_length() <= 64 * (fields + n)

    def test_fields_summing_past_two_to_the_64(self):
        # 3 * (2**63 - 1) exceeds 2**64 - 1, so the key modulo 2**64 - 1
        # is not the degree; the top bits of the fields send it to the sum.
        text = "u^9223372036854775807*v^9223372036854775807*y^9223372036854775807"
        ctx = Context("u", "v", "y")
        p = parse_poly(text, ctx)
        assert _degree(p) == 3 * (2**63 - 1)
        assert _degree(p) != next(iter(p._terms)) % (2**64 - 1)
        assert format_poly(p) == text and parse_poly(format_poly(p), ctx) == p
        code, cert, _ = run(
            ["reduce", "--vars", "u,v,y", f"--dividend={text}*y'", "--divisor=y' + v'"]
        )
        assert code == 0 and "mode: full" in cert
        assert f"cofactor.0: {text}" in cert.splitlines()
        assert run(["verify"], cert) == (0, "valid\n", "")


class TestOrderIn:
    """``DiffPoly.order_in`` reads the top order from the masked OR of the
    keys; decoding every key is the oracle."""

    @settings(max_examples=200)
    @given(_key_lists())
    @example((Context("y"), []))
    @example((ORDER_CONTEXTS[3], [1 << 64 * 4095, 1 << 64 * 4094]))
    def test_matches_decoding_reference(self, args):
        ctx, keys = args
        p = DiffPoly._raw(ctx, dict.fromkeys(keys, 1))
        for name in ctx.names:
            orders = [v.order for key in keys for v, _ in ctx._unpack(key) if v.name == name]
            assert p.order_in(name) == max(orders, default=None)

    @pytest.mark.parametrize("ctx", ORDER_CONTEXTS)
    def test_zero_polynomial(self, ctx):
        for name in ctx.names:
            assert ctx.zero().order_in(name) is None
        with pytest.raises(UnknownIndeterminate):
            ctx.zero().order_in("w")
