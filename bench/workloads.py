"""Seeded item generators for the benchmark workloads.

Generators produce surface text only; the program under test parses it.
Polynomials are kept as term maps {factors: coefficient}, where factors is
a sorted tuple of ((name, order), exponent), so the generator can test
properness without the program and render text itself.

Every workload item is a dict with ``kind`` ("pipe" for reduce -> verify,
"call" for a single invocation) and ``argv``.  Polynomial text is always
passed as ``--flag=value``: argparse reads a separate value that starts
with '-' as an option (``witness --target -u*y`` exits 1 with
``error: usage: argument --target: expected one argument``).
"""

from __future__ import annotations

import random


def random_terms(rng: random.Random, names: tuple[str, ...]) -> dict:
    """Random term map at the criterion-1 bounds (order <= 3, degree <= 3,
    <= 5 terms, coefficients in [-9, 9]); draws from ``rng`` exactly as the
    test corpus's ``random_poly`` does, so equal seeds give equal
    polynomials."""
    pool = [(name, k) for name in names for k in range(4)]
    terms: dict = {}
    for _ in range(rng.randint(1, 5)):
        factors: dict = {}
        for _ in range(rng.randint(0, 3)):
            var = rng.choice(pool)
            factors[var] = factors.get(var, 0) + 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-9, 9)
        mono = tuple(sorted(factors.items()))
        terms[mono] = terms.get(mono, 0) + coeff
    return {mono: c for mono, c in terms.items() if c}


def mentions(terms: dict, name: str) -> bool:
    return any(var[0] == name for mono in terms for var, _ in mono)


def render(terms: dict, names: tuple[str, ...]) -> str:
    """Surface text for a term map (any term order; "0" when empty)."""
    rank = {name: i for i, name in enumerate(names)}
    pieces = []
    for mono, coeff in terms.items():
        factors = [
            name + "'" * order + (f"^{exp}" if exp > 1 else "")
            for (name, order), exp in sorted(mono, key=lambda f: (rank[f[0][0]], f[0][1]))
        ]
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces) or "0"


def _order(terms: dict, name: str) -> int | None:
    return max((var[1] for mono in terms for var, _ in mono if var[0] == name), default=None)


def clearing_weight(dividend: dict, divisor: dict, main: str) -> int:
    """Sum over derivative levels h above the divisor's order r of the
    dividend's degree in main^(h), weighted by 2^(h-r-1).

    Clearing one power at level h leaves up to two powers at level h-1, so
    this estimates the derivative-clearing steps of a Ritt reduction, whose
    cost grows with the separant power it accumulates."""
    r = _order(divisor, main)
    top = _order(dividend, main)
    if top is None or top <= r:
        return 0
    return sum(
        max((dict(mono).get((main, h), 0) for mono in dividend), default=0) << (h - r - 1)
        for h in range(r + 1, top + 1)
    )


# Pairs above this clearing weight are skipped so that no single item
# dominates a run.  In the criterion-1 corpus they are about 5% of the
# pairs but hold its runaway tail: in 6000 pairs, one of weight 9 took 20 s
# to reduce and verify, with a 1.5 MB certificate, where the median pipe
# takes 8 ms.  Of 6000 pairs of weight <= 3, the slowest took 1.05 s.
MAX_CLEARING_WEIGHT = 3


def reduce_verify(seed: int):
    """Acceptance tier: the criterion-1 corpus over (u, y), order <= 3,
    degree <= 3, <= 5 terms, half of the pairs in weak mode, without the
    pairs above MAX_CLEARING_WEIGHT."""
    rng = random.Random(seed)
    names = ("u", "y")
    while True:
        dividend = random_terms(rng, names)
        divisor = random_terms(rng, names)
        if not mentions(divisor, "y"):
            continue
        if clearing_weight(dividend, divisor, "y") > MAX_CLEARING_WEIGHT:
            continue
        argv = [
            "reduce", "--vars=u,y", "--main=y",
            f"--dividend={render(dividend, names)}",
            f"--divisor={render(divisor, names)}",
        ]
        if rng.random() < 0.5:
            argv.append("--weak")
        yield {"kind": "pipe", "argv": argv}


def _leader_poly(rng: random.Random, leader: tuple, degree: int, pool: list) -> dict:
    """Term map of sum_i c_i * leader^i with a nonzero top coefficient;
    the coefficients c_i are polynomials over ``pool`` with one or two
    terms of degree <= 2 and coefficients in [-5, 5].  The constant
    coefficient c_0 always has a nonzero rational term, so leader^2 never
    divides the result and its discriminant does not vanish for that reason."""
    terms: dict = {}
    for power in range(degree + 1):
        if 0 < power < degree and rng.random() < 0.3:
            continue
        for slot in range(rng.randint(1, 2)):
            factors: dict = {}
            for _ in range(0 if power == slot == 0 else rng.randint(0, 2)):
                var = rng.choice(pool)
                factors[var] = factors.get(var, 0) + 1
            if power:
                factors[leader] = power
            mono = tuple(sorted(factors.items()))
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(-5, 5)
            terms[mono] = terms.get(mono, 0) + coeff
    terms = {mono: c for mono, c in terms.items() if c}
    if not any(dict(mono).get(leader) == degree for mono in terms):
        terms[((leader, degree),)] = 1
    return terms


def reduce_scaled(seed: int):
    """Scaled tier: reduce -> verify over (u, v, y), half in weak mode.

    The divisor has order r in 1..3 and leader degree 2 or 3; the dividend
    has degree 2..4 in that leader plus one power of y^(r+1).  Coefficients
    are polynomials in u, v, their first two derivatives and the lower
    derivatives of y, with one or two terms each.  A full reduction thus
    makes one derivative-clearing step and several leader-clearing steps,
    so polynomials and certificates are large but their size is bounded.
    Random pairs at the roadmap's scaled bounds (order <= 5, degree <= 5,
    <= 8 terms) are not used: their cost has a runaway tail (pairs took
    24 s to verify, with a 2.1 MB certificate, or ran past 30 s), almost
    all of it from degree-1 divisors of order 3 or more."""
    rng = random.Random(seed)
    names = ("u", "v", "y")
    while True:
        order = rng.randint(1, 3)
        leader = ("y", order)
        pool = [(name, k) for name in ("u", "v") for k in range(3)]
        pool += [("y", k) for k in range(order)]
        divisor = _leader_poly(rng, leader, rng.randint(2, 3), pool)
        dividend = _leader_poly(rng, leader, rng.randint(2, 4), pool)
        above = _leader_poly(rng, ("y", order + 1), 1, pool)
        for mono, coeff in above.items():
            dividend[mono] = dividend.get(mono, 0) + coeff
        dividend = {mono: c for mono, c in dividend.items() if c}
        argv = [
            "reduce", "--vars=u,v,y", "--main=y",
            f"--dividend={render(dividend, names)}",
            f"--divisor={render(divisor, names)}",
        ]
        if rng.random() < 0.5:
            argv.append("--weak")
        yield {"kind": "pipe", "argv": argv}


def witness_resultant(seed: int):
    """Witness calls whose minimal polynomial has leader degree 2, 3 or 4
    (each third of the stream, in shuffled blocks) and order <= 1.
    Coefficients are polynomials in u and the lower derivatives of y; the
    target's y-order does not exceed the minimal polynomial's order."""
    rng = random.Random(seed)
    names = ("u", "y")
    while True:
        degrees = [2, 3, 4]
        rng.shuffle(degrees)
        for degree in degrees:
            order = rng.randint(0, 1)
            leader = ("y", order)
            pool = [("u", 0)] + [("y", k) for k in range(order)]
            minimal = render(_leader_poly(rng, leader, degree, pool), names)
            target = render(_leader_poly(rng, leader, rng.randint(1, 3), pool), names)
            yield {
                "kind": "call",
                "argv": [
                    "witness", "--vars=u,y", "--main=y",
                    f"--target={target}", f"--minimal={minimal}",
                ],
            }


GENERATORS = {
    "reduce_verify": reduce_verify,
    "witness_resultant": witness_resultant,
    "reduce_scaled": reduce_scaled,
}
WORKLOADS = tuple(GENERATORS)
