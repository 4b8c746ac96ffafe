"""Rank profiles, initials, separants and the rank comparison."""

from __future__ import annotations

import random

import pytest

from diffalg import (
    Comparison,
    ConstantPolynomial,
    Context,
    DerivVar,
    DiffPoly,
    ZeroPolynomial,
    initial,
    parse_poly,
    rank_compare,
    rank_profile,
    separant,
)

import _corpus

CTX = Context("u", "y")


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


class TestRankProfile:
    def test_parabola(self):
        profile = rank_profile(P("(y')^2 - 4*y"), "y")
        assert (profile.order, profile.degree, profile.leader) == (1, 2, DerivVar("y", 1))

    def test_free_of_main(self):
        assert rank_profile(P("u^2 + 3"), "y").is_constant

    def test_linear_in_highest_derivative(self):
        profile = rank_profile(P("u*y''*y + y^5"), "y")
        assert (profile.order, profile.degree, profile.leader) == (2, 1, DerivVar("y", 2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rank_profile(CTX.zero(), "y")

    def test_order_zero_counts_as_proper(self):
        profile = rank_profile(P("y^3 - u"), "y")
        assert (profile.order, profile.degree) == (0, 3)


class TestInitialSeparant:
    def test_initial_examples(self):
        assert initial(P("u*(y')^2 + y"), "y") == P("u")
        assert initial(P("(y')^2 - 4*y"), "y") == CTX.one()
        assert initial(P("(y^3 + u)*y'' + y'"), "y") == P("y^3 + u")

    def test_separant_examples(self):
        assert separant(P("(y')^2 - 4*y"), "y") == P("2*y'")
        assert separant(P("u*y'' + y'"), "y") == P("u")
        assert separant(P("y^3"), "y") == P("3*y^2")

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            initial(P("u + 1"), "y")
        with pytest.raises(ConstantPolynomial):
            separant(P("u + 1"), "y")

    def test_both_rank_below_argument(self):
        rng = random.Random(7)
        for _ in range(100):
            A = _corpus.random_proper(rng, CTX, "y")
            if rank_profile(A, "y").is_constant:
                continue
            assert rank_compare(initial(A, "y"), A, "y") is Comparison.LESS
            assert rank_compare(separant(A, "y"), A, "y") is Comparison.LESS


class TestReconstruction:
    def test_displayed_decomposition(self):
        # A equals the sum of extracted leader-power coefficients times the
        # matching leader powers, exactly.
        rng = random.Random(11)
        for _ in range(100):
            A = _corpus.random_proper(rng, CTX, "y")
            profile = rank_profile(A, "y")
            leader = profile.leader
            rebuilt = CTX.zero()
            for j, c in enumerate(reversed(A.coefficients(leader))):
                rebuilt = rebuilt + c * CTX.var("y", profile.order) ** j
            assert rebuilt == A

    def test_separant_leading_shape(self):
        # separant = d * initial * leader^(d-1) + lower degree in the leader
        rng = random.Random(13)
        for _ in range(100):
            A = _corpus.random_proper(rng, CTX, "y")
            profile = rank_profile(A, "y")
            leader, d = profile.leader, profile.degree
            head = d * initial(A, "y") * CTX.var("y", profile.order) ** (d - 1)
            tail = separant(A, "y") - head
            assert tail.degree_in(leader) <= max(d - 2, 0)
            if d >= 2:
                assert tail.degree_in(leader) < d - 1 or tail.is_zero

    def test_derivative_leader_identity(self):
        # delta(A) = separant(A) * next-derivative + lower-order remainder;
        # this exact rearrangement drives the reduction loop.
        rng = random.Random(17)
        for _ in range(100):
            A = _corpus.random_proper(rng, CTX, "y")
            profile = rank_profile(A, "y")
            rest = A.delta() - separant(A, "y") * CTX.var("y", profile.order + 1)
            h = rest.order_in("y")
            assert h is None or h <= profile.order


class TestRankCompare:
    def test_order_dominates_degree(self):
        assert rank_compare(P("(y')^5"), P("y''"), "y") is Comparison.LESS

    def test_constants_below_proper(self):
        assert rank_compare(P("u"), P("y"), "y") is Comparison.LESS
        assert rank_compare(P("y"), P("u"), "y") is Comparison.GREATER

    def test_equivalent_ranks(self):
        assert rank_compare(P("y' + 1"), P("y' - u"), "y") is Comparison.EQUIVALENT
        assert rank_compare(P("u"), P("u' + 1"), "y") is Comparison.EQUIVALENT

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rank_compare(CTX.zero(), P("y"), "y")
        with pytest.raises(ZeroPolynomial):
            rank_compare(P("y"), CTX.zero(), "y")

    def test_strict_weak_ordering(self):
        rng = random.Random(19)
        samples = [_corpus.random_nonzero(rng, CTX) for _ in range(30)]
        for a in samples:
            assert rank_compare(a, a, "y") is Comparison.EQUIVALENT
        for a in samples[:12]:
            for b in samples[:12]:
                ab = rank_compare(a, b, "y")
                ba = rank_compare(b, a, "y")
                flipped = {
                    Comparison.LESS: Comparison.GREATER,
                    Comparison.GREATER: Comparison.LESS,
                    Comparison.EQUIVALENT: Comparison.EQUIVALENT,
                }
                assert ba is flipped[ab]
                for c in samples[:12]:
                    if ab is Comparison.LESS and rank_compare(b, c, "y") is Comparison.LESS:
                        assert rank_compare(a, c, "y") is Comparison.LESS
