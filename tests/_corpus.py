"""Seeded random generators shared across the test suite.

Corpus bounds follow the randomized acceptance criteria: derivative order
at most 3, total degree at most 3 per monomial, at most 5 terms, integer
coefficients in [-9, 9].
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from diffalg import Context, DerivVar, DiffPoly, Monomial


def random_poly(
    rng: random.Random,
    ctx: Context,
    *,
    max_order: int = 3,
    max_total_degree: int = 3,
    max_terms: int = 5,
    coeff_lo: int = -9,
    coeff_hi: int = 9,
    names: Iterable[str] | None = None,
) -> DiffPoly:
    names = tuple(ctx.names if names is None else names)
    pool = [DerivVar(name, k) for name in names for k in range(max_order + 1)]
    terms: dict[Monomial, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        factors: dict[DerivVar, int] = {}
        for _ in range(rng.randint(0, max_total_degree)):
            var = rng.choice(pool)
            factors[var] = factors.get(var, 0) + 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(coeff_lo, coeff_hi)
        mono = Monomial(factors.items())
        terms[mono] = terms.get(mono, 0) + coeff
    return DiffPoly(ctx, terms)


def random_nonzero(rng: random.Random, ctx: Context, **kwargs) -> DiffPoly:
    while True:
        p = random_poly(rng, ctx, **kwargs)
        if not p.is_zero:
            return p


def random_proper(rng: random.Random, ctx: Context, main: str, **kwargs) -> DiffPoly:
    """Nonzero polynomial involving some derivative of ``main``."""
    while True:
        p = random_poly(rng, ctx, **kwargs)
        if not p.is_zero and p.order_in(main) is not None:
            return p


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def random_irreducible(rng: random.Random, ctx: Context, main: str) -> DiffPoly:
    """Divisor irreducible over the coefficient fraction field by construction.

    Either degree 1 in its leader with a unit (nonzero rational) initial, or
    a monic quadratic in the leader with constant coefficients whose
    discriminant is not a rational square.
    """
    order = rng.randint(0, 2)
    leader = ctx.var(main, order)
    if rng.random() < 0.5:
        scale = rng.choice([c for c in range(-4, 5) if c])
        tail = random_poly(rng, ctx, max_terms=3)
        kept = {
            mono: coeff
            for mono, coeff in tail.terms.items()
            if all(v.name != main or v.order < order for v in dict(mono))
        }
        return scale * leader + DiffPoly(ctx, kept)
    b = rng.randint(-6, 6)
    while True:
        c = rng.randint(-6, 6)
        if not _is_square(b * b - 4 * c):
            break
    return leader ** 2 + b * leader + c
