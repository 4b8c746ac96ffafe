"""Sparse exact arithmetic for differential polynomials over the rationals.

A differential polynomial is a rational linear combination of monomials in
the derivatives u, u', u'', ... of finitely many declared indeterminates.
The derivation maps the k-th derivative of an indeterminate to the
(k+1)-st, kills rational constants, and extends to products by the Leibniz
rule.

Values are immutable and canonical: a coefficient is an int when integral,
else a reduced Fraction (Fraction arithmetic may leave an integral Fraction,
which compares and hashes like the int); zero terms are never stored, and
structural equality coincides with mathematical equality.  The zero
polynomial has an empty term map.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import UnknownIndeterminate

Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")


class DerivVar(NamedTuple):
    """The ``order``-th derivative of a declared indeterminate."""

    name: str
    order: int


class Context:
    """Ordered declaration of the differential indeterminates in play.

    The declaration order fixes the canonical monomial order (and thereby
    printing order and deterministic coefficient selection).  Derivative
    orders are unbounded; only the base names are declared.
    """

    __slots__ = ("names", "_index")

    def __init__(self, *names: str):
        if not names:
            raise ValueError("at least one indeterminate must be declared")
        for name in names:
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid indeterminate name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate indeterminate names in {names!r}")
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownIndeterminate(name) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Context({', '.join(map(repr, self.names))})"

    # Convenience constructors.

    def var(self, name: str, order: int = 0) -> DiffPoly:
        self.index(name)
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return DiffPoly(self, {Monomial(((DerivVar(name, order), 1),)): 1})

    def constant(self, value: Scalar) -> DiffPoly:
        return DiffPoly(self, {Monomial.UNIT: value})

    def zero(self) -> DiffPoly:
        return DiffPoly(self, {})

    def one(self) -> DiffPoly:
        return self.constant(1)


class Monomial:
    """A finite product of derivative variables with positive exponents.

    The factors live in a private map from variable to exponent.  Equality
    and the hash depend only on that map, not on the order in which the
    factors were given, so ``monomial_key`` is the one order on monomials.
    The empty product is the unit monomial.
    """

    __slots__ = ("_exps", "_hash")

    def __init__(self, factors: Iterable[tuple[DerivVar, int]] = ()):
        exps: dict[DerivVar, int] = {}
        for var, exp in factors:
            if exp < 0:
                raise ValueError(f"negative exponent for {var}")
            if exp:
                if var in exps:
                    raise ValueError("repeated variable in monomial factors")
                exps[var] = exp
        self._exps = exps
        self._hash = hash(frozenset(exps.items()))

    @classmethod
    def _make(cls, exps: dict[DerivVar, int]) -> Monomial:
        # Internal fast path: exponents positive; the result owns ``exps``.
        m = object.__new__(cls)
        m._exps = exps
        m._hash = hash(frozenset(exps.items()))
        return m

    UNIT: Monomial  # assigned below

    @property
    def degree(self) -> int:
        return sum(self._exps.values())

    def exponent(self, var: DerivVar) -> int:
        return self._exps.get(var, 0)

    def variables(self) -> Iterator[DerivVar]:
        return iter(self._exps)

    def __mul__(self, other: Monomial) -> Monomial:
        a, b = self._exps, other._exps
        if not b:
            return self
        if not a:
            return other
        out = a.copy()
        for v, e in b.items():
            out[v] = out.get(v, 0) + e
        return Monomial._make(out)

    def divide(self, other: Monomial) -> Monomial | None:
        """Quotient monomial, or None when ``other`` does not divide."""
        left = self._exps.copy()
        for v, e in other._exps.items():
            have = left.get(v, 0)
            if have < e:
                return None
            if have == e:
                del left[v]
            else:
                left[v] = have - e
        return Monomial._make(left)

    def split(self, name: str) -> tuple[Monomial, Monomial]:
        """Partition into (factors on ``name``, remaining factors)."""
        mine = {v: e for v, e in self._exps.items() if v.name == name}
        rest = {v: e for v, e in self._exps.items() if v.name != name}
        return Monomial._make(mine), Monomial._make(rest)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._exps:
            return "Monomial()"
        body = ", ".join(f"({v.name!r},{v.order})^{e}" for v, e in self._exps.items())
        return f"Monomial[{body}]"


Monomial.UNIT = Monomial()


def monomial_key(mono: Monomial, ctx: Context):
    """Graded lexicographic sort key.

    Total degree compares first; ties read exponents from the highest
    variable down, variables ordered by (declaration index, derivative
    order).
    """
    ranked = sorted(
        ((ctx.index(v.name), v.order, e) for v, e in mono._exps.items()), reverse=True
    )
    return (mono.degree, tuple(ranked))


def _scalar(c: Scalar) -> Scalar:
    """``c`` as an int when it is integral, else as a reduced Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _collect(terms: Iterable[tuple[Monomial, Scalar]]) -> dict[Monomial, Scalar]:
    """Sum the coefficients of equal monomials; zero sums are dropped.
    Every sum of term maps goes through here."""
    acc: dict[Monomial, Scalar] = {}
    for mono, c in terms:
        s = acc[mono] + c if mono in acc else c
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return acc


def _sum(ctx: Context, polys: Iterable[DiffPoly]) -> DiffPoly:
    """The sum of ``polys``, their terms collected in one pass."""
    return DiffPoly._raw(ctx, _collect(chain.from_iterable(p._terms.items() for p in polys)))


class DiffPoly:
    """A differential polynomial with exact rational coefficients.

    Instances are immutable; all arithmetic returns new canonical values.
    Mixed arithmetic with int and Fraction treats the scalar as a constant
    polynomial.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Scalar]):
        self.ctx = ctx
        self._terms = _collect((mono, _scalar(c)) for mono, c in terms.items())

    @classmethod
    def _raw(cls, ctx: Context, terms: dict[Monomial, Scalar]) -> DiffPoly:
        # Internal fast path: terms already canonical (int when integral, no zeros).
        p = object.__new__(cls)
        p.ctx = ctx
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _coerce(self, other) -> DiffPoly | None:
        if isinstance(other, DiffPoly):
            if other.ctx != self.ctx:
                raise ValueError("operands declare different indeterminates")
            return other
        if isinstance(other, (int, Fraction)):
            return DiffPoly(self.ctx, {Monomial.UNIT: other})
        return None

    def __add__(self, other) -> DiffPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _sum(self.ctx, (self, q))

    __radd__ = __add__

    def __neg__(self) -> DiffPoly:
        return DiffPoly._raw(self.ctx, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> DiffPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> DiffPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> DiffPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        products = (
            (m1 * m2, c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in q._terms.items()
        )
        return DiffPoly._raw(self.ctx, _collect(products))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> DiffPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = DiffPoly._raw(self.ctx, {Monomial.UNIT: 1})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DiffPoly(self.ctx, {Monomial.UNIT: other})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None  # mutable-dict internals; value identity is structural

    # ------------------------------------------------------------------
    # Structure queries

    def variables(self) -> set[DerivVar]:
        seen: set[DerivVar] = set()
        for mono in self._terms:
            seen.update(mono.variables())
        return seen

    def order_in(self, name: str) -> int | None:
        """Largest derivative order of ``name`` present, or None if absent."""
        self.ctx.index(name)
        best: int | None = None
        for mono in self._terms:
            for v in mono.variables():
                if v.name == name and (best is None or v.order > best):
                    best = v.order
        return best

    def degree_in(self, var: DerivVar) -> int:
        return max((m.exponent(var) for m in self._terms), default=0)

    def coefficients(self, var: DerivVar) -> list[DiffPoly]:
        """Coefficients of the powers of ``var``, highest first, with ``var``
        removed; the first is nonzero, and the zero polynomial has none."""
        by_power: dict[int, dict[Monomial, Scalar]] = {}
        for mono, c in self._terms.items():
            rest = mono._exps.copy()
            by_power.setdefault(rest.pop(var, 0), {})[Monomial._make(rest)] = c
        top = max(by_power, default=-1)
        return [DiffPoly._raw(self.ctx, by_power.get(e, {})) for e in range(top, -1, -1)]

    # ------------------------------------------------------------------
    # Calculus

    def partial(self, var: DerivVar) -> DiffPoly:
        """Formal partial derivative with respect to one derivative variable."""
        once = Monomial(((var, 1),))
        lowered = (
            (mono.divide(once), c * e)
            for mono, c in self._terms.items()
            if (e := mono.exponent(var))
        )
        return DiffPoly._raw(self.ctx, _collect(lowered))

    def delta(self, k: int = 1) -> DiffPoly:
        """Apply the derivation ``k`` times."""
        if k < 0:
            raise ValueError("derivation count must be non-negative")
        p = self
        for _ in range(k):
            p = DiffPoly._raw(self.ctx, _collect(p._leibniz_terms()))
        return p

    def _leibniz_terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        # One term per factor: lower its exponent, raise the next derivative.
        for mono, c in self._terms.items():
            exps = mono._exps
            for var, exp in exps.items():
                bumped = exps.copy()
                if exp == 1:
                    del bumped[var]
                else:
                    bumped[var] = exp - 1
                up = DerivVar(var.name, var.order + 1)
                bumped[up] = bumped.get(up, 0) + 1
                yield Monomial._make(bumped), c * exp

    def specialize(self, values: Mapping[DerivVar, DiffPoly | Scalar]) -> DiffPoly:
        """Replace every listed derivative variable by its value, all at once;
        unlisted variables stay.

        Listing every variable evaluates: the result is a constant, which
        compares equal to its scalar value.  A differential substitution
        y -> f is the jet ``{DerivVar("y", k): f.delta(k)}`` over the orders
        of y present.
        """
        pieces = []
        for mono, c in self._terms.items():
            kept = {v: e for v, e in mono._exps.items() if v not in values}
            piece = DiffPoly._raw(self.ctx, {Monomial._make(kept): c})
            for var, exp in mono._exps.items():
                if var in values:
                    piece = piece * values[var] ** exp
            pieces.append(piece)
        return _sum(self.ctx, pieces)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        from .syntax import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"<DiffPoly {self}>"


def _shift(p: DiffPoly, var: DerivVar, power: int) -> DiffPoly:
    """``p * var**power`` for ``p`` free of ``var``, by setting exponents."""
    if not power:
        return p
    terms = {Monomial._make({**m._exps, var: power}): c for m, c in p._terms.items()}
    return DiffPoly._raw(p.ctx, terms)


def exact_div(p: DiffPoly, q: DiffPoly) -> DiffPoly:
    """Exact quotient p / q in the polynomial ring.

    Raises ValueError when q does not divide p exactly; used where
    divisibility is guaranteed (fraction-free elimination pivots and the
    divisions of the subresultant PRS).

    Each round cancels the remainder's leading term against q's, so the
    leading monomial strictly decreases and the loop runs once per
    quotient term.  The remainder lives in a plain dict; its current
    leading monomial comes from a lazy max-heap of inverted sort keys,
    which keeps large divisions affordable.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p
    ctx = p.ctx
    lt_q_mono = max(q._terms, key=lambda m: monomial_key(m, ctx))
    lt_q_coeff = q._terms[lt_q_mono]
    q_tail = [(m, c) for m, c in q._terms.items() if m is not lt_q_mono]

    def inverted_key(mono: Monomial):
        # Element-wise negation inverts the graded-lex order: the degree
        # component always differs first unless the ranked tuples have equal
        # length (equal-degree monomials are never strict prefixes of one
        # another).
        degree, ranked = monomial_key(mono, ctx)
        return (-degree, tuple((-i, -o, -e) for i, o, e in ranked))

    rem = dict(p._terms)
    heap = [(inverted_key(mono), seq, mono) for seq, mono in enumerate(rem)]
    heapq.heapify(heap)
    counter = len(heap)
    quotient: dict[Monomial, Scalar] = {}
    while rem:
        lt_r_mono = None
        while heap:
            _, _, candidate = heapq.heappop(heap)
            if candidate in rem:
                lt_r_mono = candidate
                break
        assert lt_r_mono is not None
        lt_r_coeff = rem.pop(lt_r_mono)
        mono = lt_r_mono.divide(lt_q_mono)
        if mono is None:
            raise ValueError("polynomials do not divide exactly")
        # Fraction(a, b), never a / b: two ints would divide to a float.
        coeff = _scalar(Fraction(lt_r_coeff, lt_q_coeff))
        quotient[mono] = coeff
        for m2, c2 in q_tail:
            mm = mono * m2
            if mm in rem:
                s = rem[mm] - coeff * c2
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
            else:
                rem[mm] = -coeff * c2
                counter += 1
                heapq.heappush(heap, (inverted_key(mm), counter, mm))
    return DiffPoly._raw(ctx, quotient)
