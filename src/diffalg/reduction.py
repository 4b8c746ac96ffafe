"""Ritt division against a single divisor, with machine-checkable certificates.

The divisor A, proper in the main indeterminate with order r and degree d,
is divided into a working polynomial G one derivative level h at a time,
from the top down, each level by one pseudo-division of G's coefficients
in it (``elimination._pseudo_divide``):

* derivative clearing: for h > r, against the (h-r)-th derivative of A,
  which is linear in that level with the separant of A as its coefficient;
  each step multiplies the identity through by the separant (n grows);
* leader clearing: at h = r, against A, until G has degree < d in the
  leader; each step multiplies through by the initial (m grows).

m and n count the steps taken: a vanishing head costs no step.  The
cofactors of earlier levels are multiplied once per level, by lc^s.
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
from typing import Mapping

from .errors import ConstantDivisor
from .elimination import _pseudo_divide
from .polynomials import DerivVar, DiffPoly, _degree, _shift, _sum, _sum_of_products
from .ranking import initial, rank_profile, separant


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


def ritt_reduce(
    dividend: DiffPoly,
    divisor: DiffPoly,
    main: str,
    mode: ReductionMode = ReductionMode.FULL,
) -> ReductionCertificate:
    """Divide ``dividend`` by ``divisor`` relative to ``main``.

    The divisor must be proper in ``main``.  A zero dividend yields the
    trivial certificate; a dividend equal to the divisor yields the unit
    cofactor at derivative index 0.  m and n are the numbers of
    pseudo-division steps taken, which are not claimed minimal.
    """
    if dividend.ctx != divisor.ctx:
        raise ValueError("dividend and divisor declare different indeterminates")
    profile = rank_profile(divisor, main)
    if profile.is_constant:
        raise ConstantDivisor(f"divisor {divisor} is free of {main!r}")
    r, d = profile.order, profile.degree
    ctx = dividend.ctx

    derivs = [divisor]
    work = dividend
    m = n = 0
    cofactors: dict[int, DiffPoly] = {}
    if dividend == divisor:
        work = ctx.zero()
        cofactors = {0: ctx.one()}
    # One pseudo-division per derivative level h, from the top down; the
    # pass at h = r is the last.  Weak mode skips it unless d = 1, where
    # initial == separant and the steps are booked on n.
    while not work.is_zero:
        h = work.order_in(main)
        if h is None or h < r or (h == r and mode is ReductionMode.WEAK and d > 1):
            break
        while len(derivs) <= h - r:
            derivs.append(derivs[-1].delta())
        # delta^k(A) for k >= 1 is linear in this level and leads with the
        # separant; A itself leads with the initial.
        leader = DerivVar(main, h)
        b = derivs[h - r].coefficients(leader)
        rem, heads = _pseudo_divide(work.coefficients(leader), b)
        if heads:
            lc, scale = b[0], b[0] ** len(heads)
            cofactors = {j: c * scale for j, c in cofactors.items()}
            quotient = ctx.zero()
            for c, p in heads:
                quotient = quotient * lc + _shift(c, leader, p)
            cofactors[h - r] = quotient
            top = len(rem) - 1
            work = _sum(ctx, (_shift(c, leader, top - i) for i, c in enumerate(rem)))
        if h == r and mode is ReductionMode.FULL:
            m += len(heads)
        else:
            n += len(heads)
        if h == r:
            break

    return ReductionCertificate(
        dividend=dividend,
        divisor=divisor,
        main=main,
        mode=mode,
        m=m,
        n=n,
        remainder=work,
        cofactors=cofactors,
    )


def verify_certificate(cert: ReductionCertificate) -> VerificationResult:
    """Re-establish the certificate identity by exact expansion and check
    the mode's rank contract on the remainder.  Both sides of the identity
    are expanded into one sum of products, which must cancel to zero."""
    divisor = cert.divisor
    main = cert.main
    profile = rank_profile(divisor, main) if not divisor.is_zero else None
    if profile is None or profile.is_constant:
        return VerificationResult(False, "divisor")
    # Reduction never books an index above ord(F) - r; refuse one before delta^k.
    top = cert.dividend.order_in(main)
    bound = -1 if top is None else top - profile.order
    if cert.m < 0 or cert.n < 0 or any(not 0 <= k <= bound for k in cert.cofactors):
        return VerificationResult(False, "shape")
    ctx = divisor.ctx
    if any(p.ctx != ctx for p in (cert.dividend, cert.remainder, *cert.cofactors.values())):
        raise ValueError("operands declare different indeterminates")

    # The identity holds when G + sum_k c_k * delta^k(A) - I^m S^n F, summed
    # in one term map, is empty.
    dividend = cert.dividend
    pairs = [(cert.remainder, ctx.one())]
    if not dividend.is_zero:
        # In a domain I^m S^n F has total degree m deg I + n deg S + deg F,
        # and delta never raises total degree: a left side above every right
        # term cannot match, so refuse it before expanding any power.
        init, sep = initial(divisor, main), separant(divisor, main)
        left = cert.m * _degree(init) + cert.n * _degree(sep) + _degree(dividend)
        right = max(
            [_degree(cert.remainder)]
            + [_degree(c) + _degree(divisor) for c in cert.cofactors.values()]
        )
        if left > right:
            return VerificationResult(False, "identity")
        pairs.append((-(init ** cert.m * sep ** cert.n), dividend))
    derivs = [divisor]  # delta^k(A) up to the largest k, each from the last
    for _ in range(max(cert.cofactors, default=0)):
        derivs.append(derivs[-1].delta())
    pairs += [(cof, derivs[k]) for k, cof in cert.cofactors.items()]
    if not _sum_of_products(ctx, pairs).is_zero:
        return VerificationResult(False, "identity")

    if cert.mode is ReductionMode.WEAK:
        if cert.m != 0:
            return VerificationResult(False, "mode")
        h = cert.remainder.order_in(main)
        if h is not None and h > profile.order:
            return VerificationResult(False, "rank")
    elif not cert.remainder.is_zero:
        rest = rank_profile(cert.remainder, main)
        if not rest.is_constant and (rest.order, rest.degree) >= (profile.order, profile.degree):
            return VerificationResult(False, "rank")
    return VerificationResult(True)
