"""Ritt division against a single divisor, with machine-checkable certificates.

The divisor A, proper in the main indeterminate with order r and degree d,
admits two kinds of cancellation step against a working polynomial G:

* derivative clearing: while G involves a derivative of order h > r, the
  h-th derivative level is cleared against the (h-r)-th derivative of A,
  which is linear in that level with the separant of A as its coefficient;
  each step multiplies the identity through by the separant (n grows);
* leader clearing: while G has degree >= d in the leader itself, the top
  power is cleared against A; each step multiplies through by the initial
  (m grows).

Full mode runs both phases, leaving a remainder of strictly lower rank
than A (or zero).  Weak mode keeps m = 0 and only guarantees that the
remainder's order does not exceed r; when A has degree 1 its initial and
separant coincide, so weak mode still clears the leader and books those
steps on n.

Every multiplication and every subtracted multiple is recorded, so the
certificate states the exact ring identity

    initial^m * separant^n * dividend
        = remainder + sum_k cofactors[k] * delta^k(divisor)

which verify_certificate re-expands from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .errors import ConstantDivisor
from .polynomials import DerivVar, DiffPoly, Monomial
from .ranking import Comparison, initial, rank_compare, rank_profile, separant


class ReductionMode(Enum):
    FULL = "full"
    WEAK = "weak"


@dataclass(frozen=True)
class ReductionCertificate:
    """Exact witness of one Ritt division.

    Invariant: initial^m * separant^n * dividend equals
    remainder + sum over k of cofactors[k] * delta^k(divisor), where
    initial and separant are those of the divisor in ``main``.
    """

    dividend: DiffPoly
    divisor: DiffPoly
    main: str
    mode: ReductionMode
    m: int
    n: int
    remainder: DiffPoly
    cofactors: Mapping[int, DiffPoly]


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class MembershipResult:
    reduces_to_zero: bool
    certificate: ReductionCertificate


def ritt_reduce(
    dividend: DiffPoly,
    divisor: DiffPoly,
    main: str,
    mode: ReductionMode = ReductionMode.FULL,
) -> ReductionCertificate:
    """Divide ``dividend`` by ``divisor`` relative to ``main``.

    The divisor must be proper in ``main``.  A zero dividend yields the
    trivial certificate; a dividend equal to the divisor yields the unit
    cofactor at derivative index 0.  Multiplier exponents are not claimed
    minimal.
    """
    if dividend.ctx != divisor.ctx:
        raise ValueError("dividend and divisor declare different indeterminates")
    profile = rank_profile(divisor, main)
    if profile.is_constant:
        raise ConstantDivisor(f"divisor {divisor} is free of {main!r}")
    r, d = profile.order, profile.degree
    ctx = dividend.ctx

    def certificate(m, n, remainder, cofactors):
        return ReductionCertificate(
            dividend=dividend,
            divisor=divisor,
            main=main,
            mode=mode,
            m=m,
            n=n,
            remainder=remainder,
            cofactors={k: c for k, c in cofactors.items() if not c.is_zero},
        )

    if dividend.is_zero:
        return certificate(0, 0, ctx.zero(), {})
    if dividend == divisor:
        return certificate(0, 0, ctx.zero(), {0: ctx.one()})

    init = initial(divisor, main)
    sep = separant(divisor, main)

    derivs = [divisor]

    def divisor_deriv(k: int) -> DiffPoly:
        while len(derivs) <= k:
            derivs.append(derivs[-1].delta())
        return derivs[k]

    work = dividend
    m = n = 0
    cofactors: dict[int, DiffPoly] = {}
    last_measure: tuple[int, int] | None = None

    while not work.is_zero:
        h = work.order_in(main)
        if h is None or h < r:
            break
        leader = DerivVar(main, h)
        e = work.degree_in(leader)
        measure = (h, e)
        assert last_measure is None or measure < last_measure, "descent stalled"
        last_measure = measure

        # Pick the multiplier, the derivative index k of the divisor to
        # cancel against, and the leader degree that multiple removes.
        if h > r:
            multiplier, k, drop = sep, h - r, 1
        elif mode is ReductionMode.FULL and e >= d:
            multiplier, k, drop = init, 0, d
        elif mode is ReductionMode.WEAK and d == 1:
            # Weak mode: the order bound already holds.  A degree-1 divisor
            # has initial == separant, so the leader can still be cleared
            # with the multiplications booked on n.
            multiplier, k, drop = sep, 0, 1
        else:
            break

        # Multiply the running identity through, then cancel against
        # delta^k(divisor).
        top = work.coefficient_of(leader, e)
        quotient = top * DiffPoly(ctx, {Monomial(((leader, e - drop),)): 1})
        cofactors = {j: c * multiplier for j, c in cofactors.items()}
        prev = cofactors.get(k)
        cofactors[k] = quotient if prev is None else prev + quotient
        work = work * multiplier - quotient * divisor_deriv(k)
        if multiplier is init:
            m += 1
        else:
            n += 1

    return certificate(m, n, work, cofactors)


def verify_certificate(cert: ReductionCertificate) -> VerificationResult:
    """Re-establish the certificate identity by exact expansion and check
    the mode's rank contract on the remainder."""
    divisor = cert.divisor
    main = cert.main
    profile = rank_profile(divisor, main) if not divisor.is_zero else None
    if profile is None or profile.is_constant:
        return VerificationResult(False, "divisor")
    if cert.m < 0 or cert.n < 0 or any(k < 0 for k in cert.cofactors):
        return VerificationResult(False, "shape")

    lhs = (
        initial(divisor, main) ** cert.m
        * separant(divisor, main) ** cert.n
        * cert.dividend
    )
    rhs = cert.remainder
    for k, cof in cert.cofactors.items():
        rhs = rhs + cof * divisor.delta(k)
    if lhs != rhs:
        return VerificationResult(False, "identity")

    remainder = cert.remainder
    if cert.mode is ReductionMode.WEAK:
        if cert.m != 0:
            return VerificationResult(False, "mode")
        if not remainder.is_zero:
            h = remainder.order_in(main)
            if h is not None and h > profile.order:
                return VerificationResult(False, "rank")
    else:
        if not remainder.is_zero:
            if rank_compare(remainder, divisor, main) is not Comparison.LESS:
                return VerificationResult(False, "rank")
    return VerificationResult(True)


def saturation_membership(
    dividend: DiffPoly, divisor: DiffPoly, main: str
) -> MembershipResult:
    """Full reduction with the remainder read as a membership verdict.

    A zero remainder witnesses membership of the dividend in the divisor's
    saturated differential ideal.  The converse reading (nonzero remainder
    means non-membership) additionally requires the divisor to be
    irreducible over the fraction field of the coefficient ring, which is
    the caller's responsibility to assert; no irreducibility test is
    attempted here.
    """
    cert = ritt_reduce(dividend, divisor, main, ReductionMode.FULL)
    return MembershipResult(cert.remainder.is_zero, cert)
