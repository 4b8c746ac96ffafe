"""Division certificates: worked fixtures, verifier behaviour, random corpus."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from diffalg import (
    Comparison,
    ConstantDivisor,
    Context,
    DiffPoly,
    ReductionMode,
    VerificationResult,
    ZeroPolynomial,
    initial,
    parse_poly,
    rank_compare,
    rank_profile,
    ritt_reduce,
    separant,
    verify_certificate,
)

import _corpus

CTX = Context("u", "y")
FULL = ReductionMode.FULL
WEAK = ReductionMode.WEAK


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


def _identity_sides(cert):
    lhs = (
        initial(cert.divisor, cert.main) ** cert.m
        * separant(cert.divisor, cert.main) ** cert.n
        * cert.dividend
    )
    rhs = cert.remainder
    for k, cof in cert.cofactors.items():
        rhs = rhs + cof * cert.divisor.delta(k)
    return lhs, rhs


class TestWorkedFixtures:
    def test_weak_fixture(self):
        # 2y'*y'' = delta((y')^2 - 4y) + 4y', so one separant multiplication
        # clears y'' and leaves 4y'.
        cert = ritt_reduce(P("y''"), P("(y')^2 - 4*y"), "y", WEAK)
        assert (cert.m, cert.n) == (0, 1)
        assert cert.remainder == P("4*y'")
        assert cert.cofactors == {1: CTX.one()}
        assert verify_certificate(cert).valid

    def test_dividend_equals_divisor(self):
        A = P("(y')^2 - 4*y")
        for mode in (FULL, WEAK):
            cert = ritt_reduce(A, A, "y", mode)
            assert (cert.m, cert.n) == (0, 0)
            assert cert.remainder.is_zero
            assert cert.cofactors == {0: CTX.one()}
            assert verify_certificate(cert).valid

    def test_already_reduced_dividend(self):
        cert = ritt_reduce(P("y"), P("(y')^2 - 4*y"), "y", FULL)
        assert (cert.m, cert.n) == (0, 0)
        assert cert.remainder == P("y")
        assert cert.cofactors == {}

    def test_zero_dividend_trivial_certificate(self):
        for mode in (FULL, WEAK):
            cert = ritt_reduce(CTX.zero(), P("(y')^2 - 4*y"), "y", mode)
            assert (cert.m, cert.n) == (0, 0)
            assert cert.remainder.is_zero
            assert cert.cofactors == {}
            assert verify_certificate(cert).valid

    def test_main_free_dividend(self):
        cert = ritt_reduce(P("u'' + 3"), P("(y')^2 - 4*y"), "y", FULL)
        assert cert.remainder == P("u'' + 3")
        assert (cert.m, cert.n) == (0, 0)
        assert verify_certificate(cert).valid

    def test_degree_one_divisor_cleared_in_weak_mode(self):
        # The initial of a degree-1 divisor is its separant, so weak mode
        # still clears the leader while keeping m = 0.
        cert = ritt_reduce(P("y'"), P("u*y' - 1"), "y", WEAK)
        assert (cert.m, cert.n) == (0, 1)
        assert cert.remainder == CTX.one()
        assert cert.cofactors == {0: CTX.one()}
        assert verify_certificate(cert).valid

    def test_vanishing_head_costs_no_multiplication(self):
        # After one step u*(y')^4 - (y')^2*A = -y*(y')^2 has no (y')^3
        # term, so the second step is the last: m = 2, not 3.
        cert = ritt_reduce(P("(y')^4"), P("u*(y')^2 + y"), "y", FULL)
        assert (cert.m, cert.n) == (2, 0)
        assert cert.remainder == P("y^2")
        assert cert.cofactors == {0: P("u*(y')^2 - y")}
        assert verify_certificate(cert).valid

    def test_weak_clearing_of_a_square(self):
        # (y'')^2 against delta(A) = 2*u*y'*y'' + u'*(y')^2 + y': two
        # separant steps clear y'' and leave an order-1 remainder.
        cert = ritt_reduce(P("(y'')^2"), P("u*(y')^2 + y"), "y", WEAK)
        assert (cert.m, cert.n) == (0, 2)
        assert cert.remainder == P("(u')^2*(y')^4 + 2*u'*(y')^3 + (y')^2")
        assert cert.cofactors == {1: P("2*u*y'*y'' - u'*(y')^2 - y'")}
        assert verify_certificate(cert).valid

    def test_constant_divisor_rejected(self):
        with pytest.raises(ConstantDivisor):
            ritt_reduce(P("y"), P("u + 1"), "y", FULL)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPolynomial):
            ritt_reduce(P("y"), CTX.zero(), "y", FULL)

    def test_different_contexts_rejected(self):
        other = Context("u", "y", "v")
        with pytest.raises(ValueError):
            ritt_reduce(P("y''"), parse_poly("y' - u", other), "y", FULL)


class TestVerifier:
    def test_accepts_honest_certificate(self):
        cert = ritt_reduce(P("y'' * y - (y')^2"), P("(y')^2 - 4*y"), "y", FULL)
        assert verify_certificate(cert).valid

    def test_detects_perturbed_remainder(self):
        cert = ritt_reduce(P("y''"), P("(y')^2 - 4*y"), "y", WEAK)
        broken = dataclasses.replace(cert, remainder=cert.remainder + 1)
        result = verify_certificate(broken)
        assert not result.valid and result.reason == "identity"

    def test_detects_rank_violation(self):
        # Identity holds trivially (empty cofactors, m = n = 0) but the
        # remainder has the divisor's own rank.
        A = P("(y')^2 - 4*y")
        fake = ritt_reduce(A, A, "y", FULL)
        fake = dataclasses.replace(
            fake, dividend=P("(y')^2 + u"), remainder=P("(y')^2 + u"), cofactors={}
        )
        result = verify_certificate(fake)
        assert not result.valid and result.reason == "rank"

    def test_detects_mode_violation(self):
        # A full certificate with m > 0 relabelled as weak keeps the identity
        # but breaks the weak-mode contract.
        cert = ritt_reduce(P("u*(y')^3"), P("y'*y - u"), "y", FULL)
        assert cert.m > 0
        relabelled = dataclasses.replace(cert, mode=WEAK)
        result = verify_certificate(relabelled)
        assert not result.valid and result.reason == "mode"

    def test_detects_weak_order_violation(self):
        A = P("u*y - 1")
        fake = ritt_reduce(A, A, "y", WEAK)
        fake = dataclasses.replace(
            fake, dividend=P("y''"), remainder=P("y''"), cofactors={}
        )
        result = verify_certificate(fake)
        assert not result.valid and result.reason == "rank"

    def test_cofactor_index_above_dividend_order_is_shape(self):
        # delta^k(A) has order r + k; reduction never goes above ord F.
        A = P("y' - u")
        cert = ritt_reduce(P("y''"), A, "y", FULL)
        assert verify_certificate(cert).valid and set(cert.cofactors) == {1}
        beyond = dataclasses.replace(cert, cofactors={**cert.cofactors, 2: P("u")})
        assert verify_certificate(beyond) == VerificationResult(False, "shape")

    def test_no_cofactor_for_a_main_free_dividend(self):
        # 0 = -A + 1 * A holds, but no reduction of 0 or of u books a cofactor.
        A = P("y' - u")
        for F in (CTX.zero(), P("u")):
            fake = dataclasses.replace(
                ritt_reduce(F, A, "y", FULL), remainder=F - A, cofactors={0: CTX.one()}
            )
            assert verify_certificate(fake) == VerificationResult(False, "shape")


class TestSaturationMembership:
    """Full reduction read as a membership verdict, as CLI ``membership`` does."""

    def test_derivative_of_divisor_reduces_to_zero(self):
        A = P("(y')^2 - 4*y")
        cert = ritt_reduce(A.delta(), A, "y", FULL)
        assert cert.remainder.is_zero
        assert verify_certificate(cert).valid

    def test_low_rank_dividend_is_its_own_remainder(self):
        cert = ritt_reduce(P("y'"), P("(y')^2 - 4*y"), "y", FULL)
        assert cert.remainder == P("y'")

    def test_square_of_divisor_reduces_to_zero(self):
        A = P("(y')^2 - 4*y")
        cert = ritt_reduce(A * A, A, "y", FULL)
        assert cert.remainder.is_zero
        assert verify_certificate(cert).valid

    def test_constant_divisor_rejected(self):
        with pytest.raises(ConstantDivisor):
            ritt_reduce(P("y"), P("u"), "y", FULL)


class TestRandomCorpus:
    def _pairs(self, count, seed):
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < count:
            F = _corpus.random_poly(rng, CTX)
            A = _corpus.random_poly(rng, CTX)
            if A.is_zero or A.order_in("y") is None:
                continue
            pairs.append((F, A))
        return pairs

    def test_certificates_verify_in_both_modes(self):
        for F, A in self._pairs(150, seed=101):
            for mode in (FULL, WEAK):
                cert = ritt_reduce(F, A, "y", mode)
                assert verify_certificate(cert).valid, (F, A, mode)

    def test_mode_contracts(self):
        for F, A in self._pairs(150, seed=103):
            r = rank_profile(A, "y").order
            full = ritt_reduce(F, A, "y", FULL)
            assert full.remainder.is_zero or (
                rank_compare(full.remainder, A, "y") is Comparison.LESS
            )
            weak = ritt_reduce(F, A, "y", WEAK)
            assert weak.m == 0
            h = weak.remainder.order_in("y")
            assert weak.remainder.is_zero or h is None or h <= r

    def test_numeric_spot_check(self):
        # Cheap pointwise pre-filter of the certificate identity.
        rng = random.Random(107)
        for F, A in self._pairs(40, seed=109):
            cert = ritt_reduce(F, A, "y", FULL)
            lhs, rhs = _identity_sides(cert)
            sigma = {
                v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for v in lhs.variables() | rhs.variables()
            }
            assert lhs.specialize(sigma) == rhs.specialize(sigma)

    def test_idempotence_on_full_remainders(self):
        for F, A in self._pairs(60, seed=113):
            remainder = ritt_reduce(F, A, "y", FULL).remainder
            again = ritt_reduce(remainder, A, "y", FULL)
            assert again.remainder == remainder
            assert (again.m, again.n) == (0, 0)
            assert again.cofactors == {}

    def test_cofactor_indices_within_dividend_order(self):
        for F, A in self._pairs(150, seed=131):
            r = rank_profile(A, "y").order
            top = F.order_in("y")
            for mode in (FULL, WEAK):
                cert = ritt_reduce(F, A, "y", mode)
                assert all(r + k <= top for k in cert.cofactors), (F, A, mode)

    def test_degree_guard_agrees_with_full_expansion(self):
        # verify_certificate answers "identity" from total degrees alone when
        # deg(I^m S^n F) exceeds every right-hand term; that answer must be
        # the one the expanded sides give, for true certificates and for the
        # same certificates with m + 1 or n + 1.
        def degree(p):
            return max((sum(dict(mono).values()) for mono in p.terms), default=-1)

        guarded = 0
        for F, A in self._pairs(100, seed=137):
            for mode in (FULL, WEAK):
                cert = ritt_reduce(F, A, "y", mode)
                for bumped in (
                    cert,
                    dataclasses.replace(cert, m=cert.m + 1),
                    dataclasses.replace(cert, n=cert.n + 1),
                ):
                    lhs, rhs = _identity_sides(bumped)
                    reason = verify_certificate(bumped).reason
                    assert (reason == "identity") == (lhs != rhs), (F, A, mode)
                    right = max(
                        [degree(bumped.remainder)]
                        + [degree(c) + degree(A) for c in bumped.cofactors.values()]
                    )
                    guarded += degree(lhs) > right
        assert guarded > 100

    def test_no_zero_cofactors_stored(self):
        for F, A in self._pairs(80, seed=127):
            cert = ritt_reduce(F, A, "y", FULL)
            assert all(not c.is_zero for c in cert.cofactors.values())
