"""Resultants and discriminants in a chosen leader variable.

Polynomials are regrouped as univariate in one derivative variable with
differential-polynomial coefficients.  The resultant is computed by the
subresultant polynomial remainder sequence of Collins (1967) and
Brown–Traub (1971): repeated pseudo-remainders, each divided exactly by a
factor the recurrence predicts, so every intermediate coefficient stays
at the size of a subresultant.  The pseudo-remainders come from
``_pseudo_divide``, which is also the step of Ritt reduction in
``reduction.ritt_reduce``.  The resultant equals the determinant of the
Sylvester matrix.  That determinant is kept in two independent forms,
fraction-free (Bareiss) elimination and plain cofactor expansion, which
the test suite compares with each other and with the resultant.

Degenerate degrees follow fixed conventions so the witness pipeline stays
total for degree-1 divisors:

    res(c, Q) = c^deg(Q),  res(P, c) = c^deg(P),  res(c1, c2) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ZeroPolynomial
from .polynomials import Context, DerivVar, DiffPoly, _sum_of_products, exact_div
from .ranking import _proper_profile, separant


@dataclass(frozen=True)
class LeaderPoly:
    """A differential polynomial regrouped as univariate in one variable.

    Coefficients are listed by descending power, never mention the leader
    variable, and the leading entry is nonzero.  Degree 0 means the
    original polynomial was free of the variable.
    """

    variable: DerivVar
    coefficients: tuple[DiffPoly, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a leader polynomial needs at least one coefficient")
        if self.coefficients[0].is_zero:
            raise ValueError("leading coefficient must be nonzero")
        for c in self.coefficients:
            if c.degree_in(self.variable):
                raise ValueError("coefficients must not mention the leader variable")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def ctx(self) -> Context:
        return self.coefficients[0].ctx


def as_leader_poly(p: DiffPoly, variable: DerivVar) -> LeaderPoly:
    """Regroup ``p`` by powers of ``variable``; ``p`` must be nonzero."""
    if p.is_zero:
        raise ZeroPolynomial("cannot regroup the zero polynomial")
    return LeaderPoly(variable, tuple(p.coefficients(variable)))


def sylvester_matrix(p: LeaderPoly, q: LeaderPoly) -> list[list[DiffPoly]]:
    """The (deg p + deg q) square Sylvester matrix; both degrees >= 1."""
    if p.variable != q.variable:
        raise ValueError("leader polynomials use different variables")
    dp, dq = p.degree, q.degree
    if dp < 1 or dq < 1:
        raise ValueError("Sylvester matrix needs both degrees >= 1")
    zero = p.ctx.zero()
    rows: list[list[DiffPoly]] = []
    for i in range(dq):
        rows.append([zero] * i + list(p.coefficients) + [zero] * (dq - 1 - i))
    for j in range(dp):
        rows.append([zero] * j + list(q.coefficients) + [zero] * (dp - 1 - j))
    return rows


def det_bareiss(matrix: list[list[DiffPoly]], ctx: Context) -> DiffPoly:
    """Determinant by fraction-free elimination with exact pivot division.

    Not on the resultant path: acceptance criterion 4 checks it against
    ``det_cofactor`` on Sylvester matrices.
    """
    n = len(matrix)
    if n == 0:
        return ctx.one()
    m = [row[:] for row in matrix]
    sign = 1
    prev = ctx.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ctx.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = ctx.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(matrix: list[list[DiffPoly]], ctx: Context) -> DiffPoly:
    """Determinant by Laplace expansion along rows (test oracle).

    Kept deliberately independent of the fraction-free path: no divisions,
    no pivoting.  Minor determinants are memoized per column subset so the
    expansion stays usable up to the matrix sizes the tests exercise.
    """
    n = len(matrix)

    @cache
    def expand(row: int, cols: tuple[int, ...]) -> DiffPoly:
        if not cols:
            return ctx.one()
        total = ctx.zero()
        for i, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero:
                continue
            term = entry * expand(row + 1, cols[:i] + cols[i + 1 :])
            total = total - term if i % 2 else total + term
        return total

    return expand(0, tuple(range(n)))


def _pseudo_divide(a: list[DiffPoly], b: list[DiffPoly]) -> tuple[list, list]:
    """Pseudo-division of coefficient lists by descending power, without
    leading zeros.  Each step multiplies the remainder by lc(b) and cancels
    its head; a head that vanishes costs no step.  Returns the remainder
    (empty when b divides) and the head c_t and shift p_t of each of the s
    steps: lc(b)^s * a = sum_t c_t * lc(b)^(s-1-t) * x^(p_t) * b + remainder.
    Each new coefficient lc(b)*r_i - lc(r)*b_i is one sum of products, with
    lc(r) negated once per step.
    """
    lb, r = b[0], a
    heads: list[tuple[DiffPoly, int]] = []
    while len(r) >= len(b):
        lr = r[0]
        heads.append((lr, len(r) - len(b)))
        minus_lr = -lr
        r = [
            _sum_of_products(lb.ctx, ((lb, ri), (minus_lr, bi))) for ri, bi in zip(r[1:], b[1:])
        ] + [lb * c for c in r[len(b):]]
        while r and r[0].is_zero:
            r.pop(0)
    return r, heads


def resultant(p: LeaderPoly, q: LeaderPoly) -> DiffPoly:
    """Resultant of two leader polynomials in the same variable.

    Computed by the subresultant PRS (Collins 1967, Brown–Traub 1971):
    the arguments are ordered so that deg p >= deg q, at the sign
    (-1)^(deg p * deg q) when swapped; each pseudo-remainder is divided
    exactly by g * h^delta, and the result is zero as soon as one
    vanishes.  Degree-0 arguments follow the module's conventions.
    """
    if p.variable != q.variable:
        raise ValueError("leader polynomials use different variables")
    dp, dq = p.degree, q.degree
    if dp == 0:
        return p.coefficients[0] ** dq
    if dq == 0:
        return q.coefficients[0] ** dp
    a, b = list(p.coefficients), list(q.coefficients)
    negate = False
    if dp < dq:
        a, b = b, a
        negate = dp * dq % 2 == 1
    g = h = p.ctx.one()
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        # res(a, b) = (-1)^(da*db) res(b, a), and each step swaps them.
        if da % 2 and db % 2:
            negate = not negate
        r, heads = _pseudo_divide(a, b)
        if not r:
            return p.ctx.zero()
        # A degree that dropped by more than one skipped steps; scale them in.
        skipped = delta + 1 - len(heads)
        if skipped:
            scale = b[0] ** skipped
            r = [scale * c for c in r]
        divisor = g * h ** delta  # 1 on the first step
        if divisor != 1:
            r = [exact_div(c, divisor) for c in r]
        a, b = b, r
        g = a[0]
        # h = g^delta / h^(delta - 1); delta == 0 happens only on the
        # first step, where h stays 1.
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g ** delta, h ** (delta - 1))
    # b is a nonzero constant: the last subresultant is lc(b)^da / h^(da - 1).
    da = len(a) - 1
    res = b[0] if da == 1 else exact_div(b[0] ** da, h ** (da - 1))
    return -res if negate else res


def discriminant(p: DiffPoly, main: str) -> DiffPoly:
    """Resultant of ``p`` with its separant, in the leader of ``p``.

    This is the classical leader discriminant scaled by (a sign and) the
    initial, which preserves both downstream uses: non-vanishing detection
    and coefficient extraction.  Nonzero whenever ``p`` is squarefree as a
    polynomial in its leader; its order in ``main`` is strictly below the
    order of ``p``.
    """
    leader = _proper_profile(p, main).leader
    return resultant(as_leader_poly(p, leader), as_leader_poly(separant(p, main), leader))
