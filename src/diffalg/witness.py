"""Extension witnesses and the order-zero degree bound.

Given a nonzero target polynomial over declared indeterminates, and
optionally a minimal polynomial for one of them, construct a nonzero
element of the coefficient ring whose non-vanishing under any point of the
coefficients certifies that the target stays nonzero as well.

Without a minimal polynomial the witness is a single nonzero coefficient
of the target.  With one, the witness is the product a = a1 * a2 * a3 of a
coefficient of the divisor's initial, a coefficient of its leader
discriminant, and a coefficient of the resultant of the weakly reduced
target against the divisor.  Each stage is returned, together with the
weak-reduction certificate, so the whole construction can be re-checked.

The minimal polynomial is assumed irreducible over the fraction field of
the coefficient ring; that assumption is the caller's to assert, and its
violation surfaces as a vanishing discriminant or resultant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    ConstantDivisor,
    ReducesIntoIdeal,
    VanishingResultant,
    ZeroTarget,
)
from .polynomials import DiffPoly, _graded_order, _split
from .ranking import _proper_profile, rank_profile, initial
from .reduction import ReductionCertificate, ReductionMode, ritt_reduce
from .elimination import as_leader_poly, discriminant, resultant


class WitnessCase(Enum):
    TRANSCENDENTAL = "transcendental"
    ALGEBRAIC = "algebraic"


@dataclass(frozen=True)
class ChevalleyWitness:
    """The witness element and the ingredients it was assembled from.

    For the transcendental case only ``a`` is set.  For the algebraic case
    a == a1 * a2 * a3 exactly, ``b1`` is the weakly reduced target, ``n``
    the separant exponent of that reduction, and ``weak_certificate`` the
    full division certificate.  All of a, a1, a2, a3 are nonzero and free
    of the main indeterminate.
    """

    case: WitnessCase
    main: str
    a: DiffPoly
    a1: DiffPoly | None = None
    a2: DiffPoly | None = None
    a3: DiffPoly | None = None
    b1: DiffPoly | None = None
    n: int | None = None
    weak_certificate: ReductionCertificate | None = None


def select_coefficient(p: DiffPoly, main: str) -> DiffPoly:
    """Deterministic nonzero coefficient of ``p`` over the coefficient ring.

    ``p`` is viewed as a sum over monomials in the main indeterminate's
    derivatives with coefficients free of the main indeterminate; the
    coefficient attached to the smallest such monomial in the canonical
    order is returned.  Any nonzero choice would do mathematically; this
    rule makes the witness a function of its inputs.
    """
    if p.is_zero:
        raise ZeroTarget("cannot select a coefficient of the zero polynomial")
    groups = _split(p, main)
    return groups[_graded_order(p.ctx, groups)[-1]]


def chevalley_witness(
    target: DiffPoly, minimal: DiffPoly | None = None, *, main: str
) -> ChevalleyWitness:
    """Construct the witness for ``target``; see the module docstring.

    Raises ZeroTarget for a zero target, ReducesIntoIdeal when the target
    weakly reduces to zero against ``minimal`` (the hypothesis that the
    target is nonzero modulo the divisor fails), and VanishingResultant
    when the discriminant or resultant vanishes (the irreducibility
    assertion on ``minimal`` is violated).
    """
    if target.is_zero:
        raise ZeroTarget("witness target is zero")
    target.ctx.index(main)

    if minimal is None:
        return ChevalleyWitness(
            case=WitnessCase.TRANSCENDENTAL,
            main=main,
            a=select_coefficient(target, main),
        )

    if target.ctx != minimal.ctx:
        raise ValueError("target and minimal declare different indeterminates")
    profile = rank_profile(minimal, main)
    if profile.is_constant:
        raise ConstantDivisor(f"minimal polynomial is free of {main!r}")

    a1 = select_coefficient(initial(minimal, main), main)

    disc = discriminant(minimal, main)
    if disc.is_zero:
        raise VanishingResultant(
            "discriminant vanishes; the minimal polynomial is not squarefree"
        )
    a2 = select_coefficient(disc, main)

    cert = ritt_reduce(target, minimal, main, ReductionMode.WEAK)
    cleared = cert.remainder
    if cleared.is_zero:
        raise ReducesIntoIdeal("target reduces to zero against the minimal polynomial")

    leader = profile.leader
    res = resultant(as_leader_poly(cleared, leader), as_leader_poly(minimal, leader))
    if res.is_zero:
        raise VanishingResultant(
            "resultant vanishes; the minimal polynomial is not irreducible"
        )
    a3 = select_coefficient(res, main)

    return ChevalleyWitness(
        case=WitnessCase.ALGEBRAIC,
        main=main,
        a=a1 * a2 * a3,
        a1=a1,
        a2=a2,
        a3=a3,
        b1=cleared,
        n=cert.n,
        weak_certificate=cert,
    )


def degree_bound(p: DiffPoly, main: str) -> int | None:
    """Finite extension-degree bound, or None when no bound is implied.

    A minimal polynomial of order zero in ``main`` is an ordinary
    polynomial; its degree bounds the field extension degree.  Positive
    order implies no finite bound.
    """
    profile = _proper_profile(p, main)
    return profile.degree if profile.order == 0 else None
