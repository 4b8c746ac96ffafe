"""Witness construction, its invariants, and the degree bound."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffalg import (
    ConstantDivisor,
    ConstantPolynomial,
    Context,
    DerivVar,
    DiffPoly,
    ReducesIntoIdeal,
    VanishingResultant,
    WitnessCase,
    ZeroTarget,
    as_leader_poly,
    chevalley_witness,
    degree_bound,
    discriminant,
    format_poly,
    parse_poly,
    rank_profile,
    resultant,
    select_coefficient,
    separant,
    verify_certificate,
)

import _corpus

CTX = Context("u", "y")


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


class TestSelectCoefficient:
    def test_smallest_main_monomial_wins(self):
        # u attaches to the empty main monomial, which ranks below y'.
        assert select_coefficient(P("u^3*y' + u"), "y") == P("u")

    def test_single_term(self):
        assert select_coefficient(P("u*y''"), "y") == P("u")

    def test_main_free_polynomial_selects_itself(self):
        assert select_coefficient(P("u' + 3"), "y") == P("u' + 3")

    def test_zero_rejected(self):
        with pytest.raises(ZeroTarget):
            select_coefficient(CTX.zero(), "y")

    def test_scalar_coefficient(self):
        assert select_coefficient(P("-16*y"), "y") == CTX.constant(-16)

    @pytest.mark.parametrize(
        "text, names, main, chosen",
        [
            # Heads of different total degree.
            ("u*y^2 + u'*y'", "u,y", "y", "u'"),
            ("y*u^2 + y'*u'", "u,y", "u", "y'"),
            ("u*v'' + y*v*v' + 7*u'*v^3", "u,v,y", "v", "u"),
            ("u*y^(5) + v*(y')^4*y", "u,v,y", "y", "u"),
            # Heads of equal degree that differ in order or in exponent.
            ("u*y*y'' + u'*(y')^2", "u,y", "y", "u'"),
            ("u*v''*v + y*(v')^2", "u,v,y", "v", "y"),
            ("u*y^2*y' + u'*y*(y')^2", "u,y", "y", "u"),
            # A constant head.
            ("u*y + 3*u'", "u,y", "y", "3*u'"),
            ("-2*y*u*u'' + 5*y'*(u')^2 - u", "u,y", "u", "-1"),
            ("(u + v' + y)^3 - (u + v')^3", "u,v,y", "y", "3*(v')^2 + 6*u*v' + 3*u^2"),
            # Exponents whose degrees are summed field by field.
            (
                "u^9223372036854775807*v^9223372036854775807*y + u*v*y^9223372036854775807",
                "u,v,y", "y", "u^9223372036854775807*v^9223372036854775807",
            ),
            ("u*y^9223372036854775807*y' + v*(y')^9223372036854775807*y", "u,v,y", "y", "u"),
        ],
    )
    def test_recorded_choice(self, text, names, main, chosen):
        # Recorded before the order was read from masked fields.
        ctx = Context(*names.split(","))
        assert format_poly(select_coefficient(parse_poly(text, ctx), main)) == chosen


class TestTranscendentalCase:
    def test_fixture(self):
        w = chevalley_witness(P("u*y''"), main="y")
        assert w.case is WitnessCase.TRANSCENDENTAL
        assert w.a == P("u")
        assert w.a1 is None and w.weak_certificate is None

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTarget):
            chevalley_witness(CTX.zero(), main="y")


class TestAlgebraicCase:
    def test_linear_fixture(self):
        w = chevalley_witness(P("y'"), P("u*y' - 1"), main="y")
        assert w.case is WitnessCase.ALGEBRAIC
        assert (w.a1, w.a2, w.a3) == (P("u"), P("u"), CTX.one())
        assert w.b1 == CTX.one()
        assert w.n == 1
        assert w.a == P("u^2")
        assert verify_certificate(w.weak_certificate).valid

    def test_parabola_fixture(self):
        w = chevalley_witness(P("y"), P("(y')^2 - 4*y"), main="y")
        assert (w.a1, w.a2, w.a3) == (CTX.one(), CTX.constant(-16), CTX.one())
        assert w.b1 == P("y")
        assert w.n == 0
        assert w.a == CTX.constant(-16)

    def test_product_decomposition(self):
        w = chevalley_witness(P("y'' + u"), P("u*(y')^2 - y"), main="y")
        assert w.a == w.a1 * w.a2 * w.a3

    def test_target_in_ideal_rejected(self):
        A = P("u*y' - 1")
        with pytest.raises(ReducesIntoIdeal):
            chevalley_witness(A, A, main="y")

    def test_reducible_minimal_detected_by_resultant(self):
        # (y')^2 - u^2 splits as (y' - u)(y' + u); the factor shares a root.
        with pytest.raises(VanishingResultant):
            chevalley_witness(P("y' - u"), P("(y')^2 - u^2"), main="y")

    def test_repeated_factor_detected_by_discriminant(self):
        with pytest.raises(VanishingResultant):
            chevalley_witness(P("y"), P("(y' - u)^2"), main="y")

    def test_constant_minimal_rejected(self):
        with pytest.raises(ConstantDivisor):
            chevalley_witness(P("y"), P("u + 1"), main="y")

    def test_different_contexts_rejected(self):
        other = Context("u", "y", "v")
        with pytest.raises(ValueError):
            chevalley_witness(P("y'"), parse_poly("u*y' - 1", other), main="y")

    def test_determinism(self):
        B, A = P("y''*y + u'"), P("(y')^2 - 4*y")
        first = chevalley_witness(B, A, main="y")
        second = chevalley_witness(B, A, main="y")
        assert first == second


class TestWitnessCorpus:
    def _runs(self, count, seed):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            A = _corpus.random_irreducible(rng, CTX, "y")
            B = _corpus.random_nonzero(rng, CTX)
            try:
                w = chevalley_witness(B, A, main="y")
            except (ReducesIntoIdeal, VanishingResultant):
                continue
            produced += 1
            yield A, B, w

    def test_ingredients_live_in_coefficient_ring(self):
        for A, B, w in self._runs(60, seed=211):
            for part in (w.a, w.a1, w.a2, w.a3):
                assert not part.is_zero
                assert part.order_in("y") is None, (A, B, part)
            assert w.a == w.a1 * w.a2 * w.a3

    def test_embedded_certificate_is_weak_and_valid(self):
        for A, B, w in self._runs(40, seed=223):
            assert w.weak_certificate.m == 0
            assert verify_certificate(w.weak_certificate).valid

    def test_discriminant_and_resultant_drop_order(self):
        for A, B, w in self._runs(40, seed=227):
            profile = rank_profile(A, "y")
            disc = discriminant(A, "y")
            res = resultant(
                as_leader_poly(w.b1, profile.leader),
                as_leader_poly(A, profile.leader),
            )
            for value in (disc, res):
                h = value.order_in("y")
                assert h is None or h < profile.order


def _jet(image: DiffPoly, top: int = 8) -> dict[DerivVar, DiffPoly]:
    """Differential substitution y -> image, for orders of y up to ``top``."""
    return {DerivVar("y", k): image.delta(k) for k in range(top + 1)}


class TestTheoremOrderZero:
    def test_specialization_keeps_a_zero_where_target_survives(self):
        # The paper's promise at order 0: at a rational point of the
        # coefficients where a != 0, A_pt keeps its degree and is
        # squarefree, and res(B1_pt, A_pt) != 0, so some zero of A_pt is
        # not a zero of B1_pt.  With B of order 0 and A of degree >= 2,
        # B1 = B, so B_pt itself is nonzero at some zero of A_pt.
        rng = random.Random(239)
        y = DerivVar("y", 0)
        witnesses = unchanged = 0
        while witnesses < 100:
            A = _corpus.random_irreducible(rng, CTX, "y")
            if rank_profile(A, "y").order:
                continue
            B = _corpus.random_nonzero(rng, CTX, max_order=rng.choice([0, 3]))
            try:
                w = chevalley_witness(B, A, main="y")
            except (ReducesIntoIdeal, VanishingResultant):
                continue
            witnesses += 1
            if B.order_in("y") in (None, 0) and A.degree_in(y) >= 2:
                assert w.b1 == B
                unchanged += 1
            coefficients = (A.variables() | w.b1.variables()) - {y}
            assert all(v.name == "u" for v in coefficients)
            points = 0
            while points < 3:
                pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in coefficients}
                if w.a.specialize(pt) == 0:
                    continue
                points += 1
                A_pt, B1_pt = A.specialize(pt), w.b1.specialize(pt)
                assert A_pt.degree_in(y) == A.degree_in(y)
                assert discriminant(A_pt, "y") != 0
                assert not B1_pt.is_zero
                assert resultant(as_leader_poly(B1_pt, y), as_leader_poly(A_pt, y)) != 0
        assert unchanged >= 10


class TestSolutionSubstitution:
    def test_cofactors_annihilate_on_a_symbolic_solution(self):
        # y -> u^2 solves (y')^2 - 4y(u')^2 identically, so substituting it
        # into the weak identity kills every cofactor term and leaves
        # B1(x) = separant(x)^n * B(x).
        A = P("(y')^2 - 4*y*(u')^2")
        x = _jet(P("u^2"))
        assert A.specialize(x).is_zero
        for B in (P("y''"), P("y"), P("y''*y + u")):
            w = chevalley_witness(B, A, main="y")
            sep = separant(A, "y").specialize(x)
            lhs = w.b1.specialize(x)
            rhs = sep ** w.n * B.specialize(x)
            assert lhs == rhs

    def test_cofactors_annihilate_along_numeric_chain(self):
        # For (y')^2 - 4y the point u' = 1, higher derivatives 0 zeroes every
        # derivative of the substituted divisor, giving the same conclusion
        # pointwise.
        A = P("(y')^2 - 4*y")
        x = _jet(P("u^2"))
        assert not A.specialize(x).is_zero  # not a symbolic solution
        chain = {DerivVar("u", 0): Fraction(7, 2), DerivVar("u", 1): Fraction(1)}
        chain.update({DerivVar("u", k): Fraction(0) for k in range(2, 11)})
        assert A.specialize(x).specialize(chain) == 0
        for B in (P("y''"), P("y'*y + u")):
            w = chevalley_witness(B, A, main="y")
            sep_x = separant(A, "y").specialize(x)
            lhs = w.b1.specialize(x)
            rhs = sep_x ** w.n * B.specialize(x)
            assert lhs.specialize(chain) == rhs.specialize(chain)


class TestDegreeBound:
    def test_cubic(self):
        assert degree_bound(P("y^3 - u"), "y") == 3

    def test_positive_order_unbounded(self):
        assert degree_bound(P("y' - y"), "y") is None

    def test_linear(self):
        assert degree_bound(P("y - u^2"), "y") == 1

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            degree_bound(P("u^2 + 1"), "y")
