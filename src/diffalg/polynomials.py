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

Terms are keyed by one int per monomial that packs its exponents: the
exponent of the order-k derivative of the i-th declared name sits in 64-bit
field number ``k * len(ctx.names) + i``, so multiplying monomials is one
integer addition, and hashing and equality are native.  Equal Contexts
declare equal names and so share one layout.  Every exponent stays below
2**63: the top bit of each field is a guard bit, and a product, power or
derivation that would set one raises ExponentOutOfRange.  Field numbers
stay below 4096, so a key holds at most 32 KiB; a derivative past that
raises ExponentOutOfRange too.  ``DiffPoly.terms`` is a read-only mapping,
built on each access, from each key's ``Monomial``, the frozenset of its
(DerivVar, exponent) pairs, to its coefficient; ``DiffPoly(ctx, terms)``
packs them back.

Printing and coefficient selection use graded lexicographic order: total
degree, then exponents from the highest variable down, variables ranked by
(declaration index, order).  ``_graded_order`` sorts keys so without
decoding them: one stable sort per name, first to last, by the key masked
to that name's fields, then one by total degree, the key modulo 2**64 - 1.
That is exact while no field reaches 2**52, as a key has at most 4096
fields; else the fields are summed one by one.

Every product and every sum of products, such as a step lc(b)*r_i -
lc(r)*b_i of pseudo-division or the certificate identity that
``reduction.verify_certificate`` checks, is built by ``_combination`` in
one term map, without intermediate polynomials.
"""

from __future__ import annotations

import heapq
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import or_
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import ExponentOutOfRange, UnknownIndeterminate

Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")

_FIELD = 64
_FIELDS = 4096
_MASK = (1 << _FIELD) - 1
_GUARD = 1 << (_FIELD - 1)
# The guard bit of every field a key may have.
_GUARDS = int.from_bytes(_GUARD.to_bytes(_FIELD // 8, "little") * _FIELDS, "little")
# The top 12 bits of every field a key may have: bit 0 of each, times 12 bits.
_HIGH = (_GUARDS >> _FIELD - 1) * (_MASK >> _FIELD - 12 << _FIELD - 12)


def _exponents(key: int) -> memoryview:
    """The fields of a packed key, lowest first."""
    size = -(-key.bit_length() // _FIELD) * (_FIELD // 8)
    return memoryview(key.to_bytes(size, sys.byteorder)).cast("Q")


def _checked(terms: dict[int, Scalar], bits: int = 0) -> dict[int, Scalar]:
    """``terms``, unless a key, or a bit of ``bits``, sets a guard bit or a
    field past the last.  Fields never carry into one another: every sum
    that can reach a guard bit adds two exponents below 2**63, or one to
    such an exponent."""
    bits = reduce(or_, terms, bits)
    if bits & _GUARDS:
        raise ExponentOutOfRange("an exponent reaches 2**63")
    if bits >> _FIELD * _FIELDS:
        raise ExponentOutOfRange(f"a derivative past field {_FIELDS - 1}")
    return terms


def _combination(
    pairs: Iterable[tuple[dict[int, Scalar], dict[int, Scalar]]],
) -> dict[int, Scalar]:
    """The term map of the sum of the products of term-map pairs, built in
    one dict.  Every key a product yields meets the guard check, also one
    that cancels, so the sum raises ExponentOutOfRange wherever one of its
    products alone would."""
    acc: dict[int, Scalar] = {}
    cancelled = 0
    for a, b in pairs:
        right = b.items()
        for m1, c1 in a.items():
            for m2, c2 in right:
                m = m1 + m2
                if m in acc:
                    s = acc[m] + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
                        cancelled |= m
                else:
                    acc[m] = c1 * c2
    return _checked(acc, cancelled)


def _product(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    """The term map of the product of two term maps."""
    return _combination(((a, b),))


def _power(terms: dict[int, Scalar], e: int) -> dict[int, Scalar]:
    """The term map of ``terms`` to the power ``e``.  A one-term base is
    raised at once, each field times ``e``; any other by repeated squaring."""
    if len(terms) == 1 and e:
        [(key, c)] = terms.items()
        if key and max(_exponents(key)) * e >= _GUARD:
            raise ExponentOutOfRange("an exponent reaches 2**63")
        return {key * e: c**e}
    result: dict[int, Scalar] = {0: 1}
    while e:
        if e & 1:
            result = _product(result, terms)
        terms = _product(terms, terms) if e > 1 else terms
        e >>= 1
    return result


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

    # Packed monomial keys (see the module docstring).

    def _offset(self, var: DerivVar) -> int:
        """Bit offset of ``var``'s exponent field."""
        field = var.order * len(self.names) + self.index(var.name)
        if field >= _FIELDS:
            raise ExponentOutOfRange(f"order {var.order} of {var.name} past field {_FIELDS - 1}")
        return _FIELD * field

    def _pack(self, mono: Monomial) -> int:
        if not isinstance(mono, Monomial):
            raise TypeError(f"a term key must be a Monomial, not {type(mono).__name__}")
        key = 0
        for var, exp in mono:
            if exp >= _GUARD:
                raise ExponentOutOfRange(f"exponent {exp} of {var}")
            key += exp << self._offset(var)
        return key

    def _unpack(self, key: int) -> Monomial:
        n = len(self.names)
        return Monomial(
            (DerivVar(self.names[f % n], f // n), e) for f, e in enumerate(_exponents(key)) if e
        )

    def _var_terms(self, name: str, order: int, exponent: int = 1) -> dict[int, Scalar]:
        """The term map of the variable to ``exponent``, which is below 2**63."""
        return {exponent << self._offset(DerivVar(name, order)): 1}

    # Convenience constructors.

    def var(self, name: str, order: int = 0) -> DiffPoly:
        if not isinstance(order, int) or order < 0:
            raise ValueError("derivative order must be a non-negative int")
        return DiffPoly._raw(self, self._var_terms(name, order))

    def constant(self, value: Scalar) -> DiffPoly:
        value = _scalar(value)
        return DiffPoly._raw(self, {0: value} if value else {})

    def zero(self) -> DiffPoly:
        return DiffPoly._raw(self, {})

    def one(self) -> DiffPoly:
        return self.constant(1)


class Monomial(frozenset):
    """A finite product of derivative variables: the frozenset of its
    (DerivVar, exponent) pairs, so ``dict(m)`` maps each variable to its
    exponent.  Zero exponents are dropped before the checks: a variable not
    a DerivVar of int order, or an exponent not an int, raises TypeError; a
    negative order or exponent, or a repeated variable, raises ValueError.
    ``Monomial()`` is the unit."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[tuple[DerivVar, int]] = ()):
        pairs = [(var, exp) for var, exp in factors if exp]
        for var, exp in pairs:
            if not isinstance(var, DerivVar) or not isinstance(var.order, int):
                raise TypeError(f"monomial variable {var!r} is not a DerivVar of int order")
            if not isinstance(exp, int):
                raise TypeError(f"exponent {exp!r} of {var} is not an int")
            if var.order < 0 or exp < 0:
                raise ValueError(f"negative order or exponent in monomial factor {var}")
        if len(dict(pairs)) < len(pairs):
            raise ValueError("repeated variable in monomial factors")
        return super().__new__(cls, pairs)


@lru_cache(maxsize=64)
def _name_mask(n: int, fields: int) -> int:
    """The mask of the fields of the first of ``n`` names, up to field number
    ``fields`` or a little past it; shifted by ``_FIELD * i``, of the i-th."""
    pattern = b"\xff" * (_FIELD // 8) + bytes(_FIELD // 8 * (n - 1))
    return int.from_bytes(pattern * -(-fields // n), "little")


def _degree_read(top: int):
    """The total degree of a key whose set bits lie in ``top``."""
    return (lambda key: sum(_exponents(key))) if top & _HIGH else _MASK.__rmod__


def _graded_order(ctx: Context, keys: Iterable[int]) -> list[int]:
    """``keys`` in descending graded lexicographic order (see the module
    docstring).  A name's masked fields compare as an int from its highest
    order down.  The first sort compares whole keys: where they differ
    outside the first name's fields, a later sort decides."""
    order = sorted(keys, reverse=True)
    if len(order) > 1:
        n = len(ctx.names)
        top = reduce(or_, order)
        first = _name_mask(n, -(-top.bit_length() // _FIELD))
        for i in range(1, n):
            order.sort(key=(first << _FIELD * i).__and__, reverse=True)
        order.sort(key=_degree_read(top), reverse=True)
    return order


def _scalar(c: Scalar) -> Scalar:
    """``c`` as an int when it is integral, else as a reduced Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _collect(terms: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
    """Sum the coefficients of equal keys; zero sums are dropped.
    Every sum of term maps goes through here, except sums of products,
    which ``_combination`` builds."""
    acc: dict[int, Scalar] = {}
    for key, c in terms:
        s = acc[key] + c if key in acc else c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def _sum(ctx: Context, polys: Iterable[DiffPoly]) -> DiffPoly:
    """The sum of ``polys``, their terms collected in one pass."""
    return DiffPoly._raw(ctx, _collect(chain.from_iterable(p._terms.items() for p in polys)))


def _sum_of_products(ctx: Context, pairs: Iterable[tuple[DiffPoly, DiffPoly]]) -> DiffPoly:
    """The sum of the products of ``pairs``, built in one term map."""
    return DiffPoly._raw(ctx, _combination((p._terms, q._terms) for p, q in pairs))


class DiffPoly:
    """A differential polynomial with exact rational coefficients.

    Instances are immutable; all arithmetic returns new canonical values.
    Mixed arithmetic with int and Fraction treats the scalar as a constant
    polynomial.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Scalar]):
        self.ctx = ctx
        self._terms = _collect((ctx._pack(mono), _scalar(c)) for mono, c in terms.items())

    @classmethod
    def _raw(cls, ctx: Context, terms: dict[int, Scalar]) -> DiffPoly:
        # Internal fast path: terms already canonical (int when integral, no zeros).
        p = object.__new__(cls)
        p.ctx = ctx
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return MappingProxyType({self.ctx._unpack(key): c for key, c in self._terms.items()})

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
            return self.ctx.constant(other)
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
        return DiffPoly._raw(self.ctx, _product(self._terms, q._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> DiffPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return DiffPoly._raw(self.ctx, _power(self._terms, exponent))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.constant(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None  # mutable-dict internals; value identity is structural

    # ------------------------------------------------------------------
    # Structure queries

    def variables(self) -> set[DerivVar]:
        # A field of the OR of all keys is nonzero where any key's is.
        return set(dict(self.ctx._unpack(reduce(or_, self._terms, 0))))

    def order_in(self, name: str) -> int | None:
        """Largest derivative order of ``name`` present, or None if absent."""
        i, n = self.ctx.index(name), len(self.ctx.names)
        top = reduce(or_, self._terms, 0)
        # The highest set bit of name's fields lies in that of its top order.
        present = top & _name_mask(n, -(-top.bit_length() // _FIELD)) << _FIELD * i
        return (present.bit_length() - 1) // (_FIELD * n) if present else None

    def degree_in(self, var: DerivVar) -> int:
        s = self.ctx._offset(var)
        return max((key >> s & _MASK for key in self._terms), default=0)

    def coefficients(self, var: DerivVar) -> list[DiffPoly]:
        """Coefficients of the powers of ``var``, highest first, with ``var``
        removed; the first is nonzero, and the zero polynomial has none."""
        s = self.ctx._offset(var)
        by_power: dict[int, dict[int, Scalar]] = {}
        for key, c in self._terms.items():
            e = key >> s & _MASK
            by_power.setdefault(e, {})[key - (e << s)] = c
        top = max(by_power, default=-1)
        return [DiffPoly._raw(self.ctx, by_power.get(e, {})) for e in range(top, -1, -1)]

    # ------------------------------------------------------------------
    # Calculus

    def partial(self, var: DerivVar) -> DiffPoly:
        """Formal partial derivative with respect to one derivative variable."""
        s = self.ctx._offset(var)
        lowered = {
            key - (1 << s): c * e for key, c in self._terms.items() if (e := key >> s & _MASK)
        }
        return DiffPoly._raw(self.ctx, lowered)

    def delta(self, k: int = 1) -> DiffPoly:
        """Apply the derivation ``k`` times."""
        if k < 0:
            raise ValueError("derivation count must be non-negative")
        p = self
        for _ in range(k):
            p = DiffPoly._raw(self.ctx, _checked(_collect(p._leibniz_terms())))
        return p

    def _leibniz_terms(self) -> Iterator[tuple[int, Scalar]]:
        # One term per factor: lower its exponent, raise the next derivative,
        # whose field lies len(ctx.names) fields higher.
        up = _FIELD * len(self.ctx.names)
        for key, c in self._terms.items():
            for f, exp in enumerate(_exponents(key)):
                if exp:
                    s = _FIELD * f
                    yield key - (1 << s) + (1 << (s + up)), c * exp

    def specialize(self, values: Mapping[DerivVar, DiffPoly | Scalar]) -> DiffPoly:
        """Replace every listed derivative variable by its value, all at once;
        unlisted variables stay.

        Listing every variable evaluates: the result is a constant, which
        compares equal to its scalar value.  A differential substitution
        y -> f is the jet ``{DerivVar("y", k): f.delta(k)}`` over the orders
        of y present.
        """
        ctx = self.ctx
        pieces = []
        for key, c in self._terms.items():
            listed = [(v, e) for v, e in ctx._unpack(key) if v in values]
            piece = DiffPoly._raw(ctx, {key - sum(e << ctx._offset(v) for v, e in listed): c})
            for var, exp in listed:
                piece = piece * values[var] ** exp
            pieces.append(piece)
        return _sum(self.ctx, pieces)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        from .syntax import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"<DiffPoly {self}>"


def _split(p: DiffPoly, name: str) -> dict[int, DiffPoly]:
    """``p`` as a sum of head * rest, by head: the key of a monomial's
    factors in the derivatives of ``name``; each rest is free of them."""
    ctx = p.ctx
    fields = -(-max(p._terms, default=0).bit_length() // _FIELD)
    on_name = _name_mask(len(ctx.names), fields) << _FIELD * ctx.index(name)
    groups: dict[int, dict[int, Scalar]] = {}
    for key, c in p._terms.items():
        head = key & on_name
        groups.setdefault(head, {})[key - head] = c
    return {head: DiffPoly._raw(ctx, rest) for head, rest in groups.items()}


def _degree(p: DiffPoly) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max(map(_degree_read(reduce(or_, p._terms, 0)), p._terms), default=-1)


def _shift(p: DiffPoly, var: DerivVar, power: int) -> DiffPoly:
    """``p * var**power`` for ``p`` free of ``var``, by setting exponents."""
    if not power:
        return p
    up = power << p.ctx._offset(var)
    return DiffPoly._raw(p.ctx, {key + up: c for key, c in p._terms.items()})


def exact_div(p: DiffPoly, q: DiffPoly) -> DiffPoly:
    """Exact quotient p / q in the polynomial ring.

    Raises ValueError when q does not divide p exactly; used where
    divisibility is guaranteed (fraction-free elimination pivots and the
    divisions of the subresultant PRS).

    Each round cancels the remainder's leading term against q's, so the
    leading monomial strictly decreases and the loop runs once per
    quotient term.  The remainder lives in a plain dict; its current
    leading monomial comes from a lazy max-heap of negated keys, which
    keeps large divisions affordable.  Leading means largest as an int:
    lex order with the highest field first.  That is a monomial order,
    since keys add without carries, and the exact quotient is the same
    under any monomial order.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p
    lt_q = max(q._terms)
    lt_q_coeff = q._terms[lt_q]
    int_divisor = type(lt_q_coeff) is int
    q_tail = [(key, c) for key, c in q._terms.items() if key != lt_q]
    # The guard bits of p's and q's fields; every key met below lies in them.
    guards = _GUARDS & ((1 << max(chain(p._terms, q._terms)).bit_length() + _FIELD) - 1)
    rem = dict(p._terms)
    heap = [-key for key in rem]
    heapq.heapify(heap)
    quotient: dict[int, Scalar] = {}
    while rem:
        lt_r = -heapq.heappop(heap)
        while lt_r not in rem:
            lt_r = -heapq.heappop(heap)
        lt_r_coeff = rem.pop(lt_r)
        # A field that borrows clears its guard bit.  A remainder key that
        # has set one cannot come from a divisor: the products of an exact
        # quotient stay within the exponents of p.
        borrowed = (lt_r | guards) - lt_q
        if borrowed & guards != guards or lt_r & guards:
            raise ValueError("polynomials do not divide exactly")
        mono = borrowed ^ guards
        if int_divisor and type(lt_r_coeff) is int and not lt_r_coeff % lt_q_coeff:
            coeff = lt_r_coeff // lt_q_coeff
        else:
            # Fraction(a, b), never a / b: two ints would divide to a float.
            coeff = _scalar(Fraction(lt_r_coeff, lt_q_coeff))
        quotient[mono] = coeff
        for m2, c2 in q_tail:
            mm = mono + m2
            if mm in rem:
                s = rem[mm] - coeff * c2
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
            else:
                rem[mm] = -coeff * c2
                heapq.heappush(heap, -mm)
    return DiffPoly._raw(p.ctx, quotient)
