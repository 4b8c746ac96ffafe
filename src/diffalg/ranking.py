"""Rank data of a differential polynomial relative to a main indeterminate.

For a polynomial that actually involves the main indeterminate, the rank
is the pair (order, degree): the highest derivative present and the degree
in that derivative (the leader).  Polynomials free of the main
indeterminate carry the constant profile, which ranks strictly below every
proper one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConstantPolynomial, ZeroPolynomial
from .polynomials import DerivVar, DiffPoly


class Comparison(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUIVALENT = "equivalent"


@dataclass(frozen=True)
class RankProfile:
    """Order, degree and leader of a polynomial, or the constant profile.

    The constant profile (polynomial free of the main indeterminate) has
    all three fields None; degree is deliberately undefined rather than 0.
    """

    order: int | None = None
    degree: int | None = None
    leader: DerivVar | None = None

    @property
    def is_constant(self) -> bool:
        return self.order is None


def rank_profile(p: DiffPoly, main: str) -> RankProfile:
    """Rank of ``p`` relative to ``main``; ``p`` must be nonzero."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no rank")
    r = p.order_in(main)
    if r is None:
        return RankProfile()
    leader = DerivVar(main, r)
    return RankProfile(order=r, degree=p.degree_in(leader), leader=leader)


def initial(p: DiffPoly, main: str) -> DiffPoly:
    """Coefficient of the top power of the leader."""
    profile = rank_profile(p, main)
    if profile.is_constant:
        raise ConstantPolynomial(f"{p} is free of {main!r}")
    return p.coefficients(profile.leader)[0]


def separant(p: DiffPoly, main: str) -> DiffPoly:
    """Formal partial derivative with respect to the leader.

    Nonzero whenever the profile is proper, since coefficients live in
    characteristic zero.
    """
    profile = rank_profile(p, main)
    if profile.is_constant:
        raise ConstantPolynomial(f"{p} is free of {main!r}")
    return p.partial(profile.leader)


def rank_compare(a: DiffPoly, b: DiffPoly, main: str) -> Comparison:
    """Compare ranks: lower order wins, then lower degree; constants rank
    below proper polynomials; equal (order, degree) is Equivalent."""
    pa = rank_profile(a, main)
    pb = rank_profile(b, main)
    if pa.is_constant and pb.is_constant:
        return Comparison.EQUIVALENT
    if pa.is_constant:
        return Comparison.LESS
    if pb.is_constant:
        return Comparison.GREATER
    if (pa.order, pa.degree) < (pb.order, pb.degree):
        return Comparison.LESS
    if (pa.order, pa.degree) > (pb.order, pb.degree):
        return Comparison.GREATER
    return Comparison.EQUIVALENT
