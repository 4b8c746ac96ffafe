"""Leader regrouping, Sylvester resultants, discriminants, determinants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffalg import (
    ConstantPolynomial,
    Context,
    DerivVar,
    DiffPoly,
    LeaderPoly,
    ZeroPolynomial,
    as_leader_poly,
    det_bareiss,
    det_cofactor,
    discriminant,
    parse_poly,
    rank_profile,
    resultant,
    separant,
    sylvester_matrix,
)

import _corpus
from diffalg.elimination import _pseudo_divide

CTX = Context("u", "y")
YP = DerivVar("y", 1)


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


def _leader(text: str, var: DerivVar = YP) -> LeaderPoly:
    return as_leader_poly(P(text), var)


def _random_matrix(rng: random.Random, size: int) -> list[list[DiffPoly]]:
    entries = []
    for _ in range(size):
        row = []
        for _ in range(size):
            if rng.random() < 0.3:
                row.append(CTX.constant(rng.randint(-4, 4)))
            else:
                row.append(
                    _corpus.random_poly(
                        rng, CTX, max_order=1, max_total_degree=2, max_terms=2,
                        coeff_lo=-4, coeff_hi=4,
                    )
                )
        entries.append(row)
    return entries


class TestAsLeaderPoly:
    def test_regroups_by_powers(self):
        lp = _leader("(y')^2 - 4*y")
        assert lp.degree == 2
        assert lp.coefficients == (CTX.one(), CTX.zero(), P("-4*y"))

    def test_linear(self):
        lp = _leader("u*y' - 1")
        assert lp.coefficients == (P("u"), P("-1"))

    def test_variable_absent(self):
        lp = _leader("y^3 + u")
        assert lp.degree == 0
        assert lp.coefficients == (P("y^3 + u"),)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            as_leader_poly(CTX.zero(), YP)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LeaderPoly(YP, (CTX.zero(), CTX.one()))
        with pytest.raises(ValueError):
            LeaderPoly(YP, (P("y'"),))
        with pytest.raises(ValueError):
            LeaderPoly(YP, ())


class TestResultant:
    def test_parabola_against_leader(self):
        # 3x3 Sylvester determinant, checked by hand cofactor expansion.
        assert resultant(_leader("(y')^2 - 4*y"), _leader("y'")) == P("-4*y")

    def test_degree_zero_first_argument(self):
        assert resultant(_leader("1"), _leader("u*y' - 1")) == CTX.one()

    def test_degree_zero_second_argument(self):
        assert resultant(_leader("u*y' - 1"), _leader("u")) == P("u")

    def test_both_degree_zero(self):
        assert resultant(_leader("y + 2"), _leader("u - 1")) == CTX.one()

    def test_degree_zero_power_convention(self):
        # res(c, Q) = c^deg(Q)
        assert resultant(_leader("y"), _leader("(y')^2 - 4*y")) == P("y^2")

    def test_mismatched_variables_rejected(self):
        with pytest.raises(ValueError):
            resultant(_leader("y'"), as_leader_poly(P("y''"), DerivVar("y", 2)))

    def test_swap_sign(self):
        rng = random.Random(23)
        for _ in range(40):
            p = _corpus.random_nonzero(rng, CTX, max_order=1, max_terms=3)
            q = _corpus.random_nonzero(rng, CTX, max_order=1, max_terms=3)
            lp, lq = as_leader_poly(p, YP), as_leader_poly(q, YP)
            sign = (-1) ** (lp.degree * lq.degree)
            assert resultant(lp, lq) == sign * resultant(lq, lp)

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(29)
        for _ in range(30):
            def const_poly():
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
                p = CTX.zero()
                for i, c in enumerate(coeffs):
                    p = p + c * CTX.var("y", 1) ** i
                return p
            p1, p2, q = const_poly(), const_poly(), const_poly()
            if p1.is_zero or p2.is_zero or q.is_zero:
                continue
            lhs = resultant(as_leader_poly(p1 * p2, YP), as_leader_poly(q, YP))
            rhs = resultant(as_leader_poly(p1, YP), as_leader_poly(q, YP)) * resultant(
                as_leader_poly(p2, YP), as_leader_poly(q, YP)
            )
            assert lhs == rhs

    def test_common_factor_vanishes(self):
        rng = random.Random(31)
        for _ in range(20):
            h = _corpus.random_proper(rng, CTX, "y", max_order=1, max_terms=2)
            if h.degree_in(YP) < 1:
                continue
            p1 = _corpus.random_nonzero(rng, CTX, max_order=1, max_terms=2)
            q1 = _corpus.random_nonzero(rng, CTX, max_order=1, max_terms=2)
            res = resultant(as_leader_poly(h * p1, YP), as_leader_poly(h * q1, YP))
            assert res.is_zero


def _random_in_leader(rng: random.Random, degree: int) -> DiffPoly:
    """Degree ``degree`` in y' with coefficients in u, u' and y."""
    total = CTX.zero()
    for power in range(degree + 1):
        raw = _corpus.random_poly(
            rng, CTX, max_order=1, max_total_degree=2, max_terms=2, coeff_lo=-3, coeff_hi=3,
        )
        coeff = DiffPoly(CTX, {m: c for m, c in raw.terms.items() if YP not in dict(m)})
        if power == degree and coeff.is_zero:
            coeff = CTX.one()
        total = total + coeff * CTX.var("y", 1) ** power
    return total


class TestResultantOracle:
    """``resultant`` against cofactor expansion of the Sylvester matrix."""

    @staticmethod
    def _check(p: DiffPoly, q: DiffPoly) -> DiffPoly:
        lp, lq = as_leader_poly(p, YP), as_leader_poly(q, YP)
        res = resultant(lp, lq)
        assert res == det_cofactor(sylvester_matrix(lp, lq), CTX)
        return res

    def test_random_pairs(self):
        rng = random.Random(43)
        for _ in range(40):
            p = _random_in_leader(rng, rng.randint(1, 4))
            q = _random_in_leader(rng, rng.randint(1, 4))
            self._check(p, q)

    def test_planted_common_factor(self):
        rng = random.Random(47)
        for _ in range(10):
            h = _random_in_leader(rng, rng.randint(1, 2))
            p = h * _random_in_leader(rng, rng.randint(0, 2))
            q = h * _random_in_leader(rng, rng.randint(0, 2))
            assert self._check(p, q).is_zero

    def test_swap_sign_odd_degrees(self):
        p, q = P("u*y'^3 + y*y' + u'"), P("y*y' + u")
        assert self._check(p, q) == -self._check(q, p)
        assert not self._check(p, q).is_zero

    def test_degree_gap(self):
        # Gaps of 2 and 3 exercise h = g^delta / h^(delta-1).
        self._check(P("u*y'^4 + y*y'^2 + u'"), P("y*y'^2 + u*y' + 1"))
        self._check(P("y'^5 + u*y'^2 + y"), P("(u + y)*y'^2 + u'"))

    def test_remainder_degree_drops_by_two(self):
        # prem(y'^4 + u, y'^3 + u') = -u'*y' + u skips degree 2.
        assert self._check(P("y'^4 + u"), P("y'^3 + u'")) == P("(u')^4 + u^3")

    def test_degree_one(self):
        self._check(P("u*y' + y"), P("y*y' - u'"))
        self._check(P("u*y' + y"), P("y'^3 + u"))
        self._check(P("y'^2 + u"), P("(u + 1)*y' + y"))


class TestPseudoDivision:
    """The pseudo-division shared by ``resultant`` and ``ritt_reduce``."""

    @staticmethod
    def _check(p: DiffPoly, q: DiffPoly) -> tuple[list[DiffPoly], list]:
        b = q.coefficients(YP)
        rem, heads = _pseudo_divide(p.coefficients(YP), b)
        x = CTX.var("y", 1)
        s, lb = len(heads), b[0]
        quotient = CTX.zero()
        for t, (c, shift) in enumerate(heads):
            assert not c.is_zero
            quotient = quotient + c * lb ** (s - 1 - t) * x ** shift
        rebuilt = CTX.zero()
        for i, c in enumerate(rem):
            rebuilt = rebuilt + c * x ** (len(rem) - 1 - i)
        assert lb ** s * p == quotient * q + rebuilt
        assert len(rem) < len(b)
        assert not rem or not rem[0].is_zero
        return rem, heads

    def test_identity_on_random_lists(self):
        rng = random.Random(53)
        for _ in range(60):
            p = _random_in_leader(rng, rng.randint(1, 4))
            q = _random_in_leader(rng, rng.randint(1, 3))
            self._check(p, q)

    def test_vanishing_head_costs_no_step(self):
        # y'^4 + u -> -y*y'^2 + u has no y'^3 term: two steps, not three.
        rem, heads = self._check(P("y'^4 + u"), P("y'^2 + y"))
        assert [shift for _, shift in heads] == [2, 0]
        assert rem == [P("y^2 + u")]

    def test_short_dividend_takes_no_step(self):
        rem, heads = self._check(P("u*y' + 1"), P("y'^2 + y"))
        assert heads == [] and rem == [P("u"), P("1")]


class TestDiscriminant:
    def test_parabola(self):
        assert discriminant(P("(y')^2 - 4*y"), "y") == P("-16*y")

    def test_degree_one_uses_convention(self):
        assert discriminant(P("u*y' - 1"), "y") == P("u")

    def test_separable_quadratic(self):
        # Oracle value: cofactor expansion of the 3x3 Sylvester matrix of
        # (t^2 - t, 2t - 1) gives -1.
        A = P("(y')^2 - y'")
        matrix = sylvester_matrix(as_leader_poly(A, YP), as_leader_poly(separant(A, "y"), YP))
        oracle = det_cofactor(matrix, CTX)
        assert oracle == CTX.constant(-1)
        assert discriminant(A, "y") == CTX.constant(-1)

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            discriminant(P("u^2"), "y")

    def test_order_drop(self):
        rng = random.Random(37)
        checked = 0
        while checked < 50:
            A = _corpus.random_proper(rng, CTX, "y")
            profile = rank_profile(A, "y")
            if profile.order == 0 and profile.degree == 1:
                continue  # discriminant would be a bare convention constant
            disc = discriminant(A, "y")
            h = disc.order_in("y")
            assert h is None or h < profile.order
            checked += 1


class TestDeterminants:
    def test_bareiss_equals_cofactor_on_random_matrices(self):
        rng = random.Random(41)
        for _ in range(60):
            size = rng.randint(1, 4)
            matrix = _random_matrix(rng, size)
            assert det_bareiss(matrix, CTX) == det_cofactor(matrix, CTX)

    def test_singular_matrix(self):
        row = [P("y'"), P("u")]
        matrix = [row, [2 * row[0], 2 * row[1]]]
        assert det_bareiss(matrix, CTX).is_zero

    def test_zero_pivot_needs_row_swap(self):
        matrix = [
            [CTX.zero(), CTX.one()],
            [CTX.one(), CTX.zero()],
        ]
        assert det_bareiss(matrix, CTX) == CTX.constant(-1)

    def test_empty_matrix(self):
        assert det_bareiss([], CTX) == CTX.one()
        assert det_cofactor([], CTX) == CTX.one()

    def test_sylvester_shape(self):
        matrix = sylvester_matrix(_leader("(y')^2 - 4*y"), _leader("2*y'"))
        assert len(matrix) == 3
        assert matrix[0] == [CTX.one(), CTX.zero(), P("-4*y")]
        assert matrix[1] == [P("2"), CTX.zero(), CTX.zero()]
        assert matrix[2] == [CTX.zero(), P("2"), CTX.zero()]
