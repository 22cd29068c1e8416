"""Exact arithmetic in the field of rational functions of the chart coordinates.

A polynomial is stored as a rational content n/d times a primitive integer
polynomial: integer coefficients with gcd 1 and a positive leading
coefficient.  That form is unique, so equality of polynomials is
structural.  By Gauss's lemma the product of two primitive polynomials is
primitive with a positive leading coefficient, so a product multiplies the
contents and the integer parts and needs no gcd; sums, derivatives and
constructors divide out the gcd of their integer coefficients.

Monomials are packed into one int: a 16-bit field per coordinate, the
first coordinate most significant, and the total degree in a field above
them all.  The top bit of every field is a guard that stays clear, so a
monomial product is one integer addition, monomial divisibility is one
borrow-free subtraction, and the graded-lexicographic term order (higher
total degree first, then the lexicographically larger exponent vector) is
integer order.  Exponents and total degrees must stay below 2**15; an
operation that would pass that limit raises ``BudgetError`` rather than
wrap.  ``Poly.terms`` shows the terms as ``{exponent tuple: Fraction}``.

Exact division (``Poly.divide_exact``) divides the integer parts with
``divmod``, taking the largest remaining term from a max-heap (Monagan and
Pearce, "Sparse polynomial division using a heap", JSC 2011); a
non-integral quotient coefficient or an indivisible leading monomial
proves the division inexact and raises ``InexactDivisionError``.

A scalar is a quotient num/den of two polynomials with den not
identically zero.  Equality of scalars is decided by cross-multiplication
(a/b = c/d iff a*d - c*b expands to the zero polynomial), so reduction to
lowest terms is never needed for correctness.  A cheap normalization keeps
representatives small and canonical enough for reproducible
serialization: common monomial factors of num and den are cancelled and
den is rescaled to be monic in the graded-lexicographic term order.  Full
multivariate GCD reduction is deliberately not attempted.  Polynomial
scalars share one unit denominator, so their product multiplies numerators.

A sum of products is taken by an ``Accumulator``, which returns exactly the
Scalar of the loop ``acc = acc + x * y`` and costs no Poly per term.  While
every term is polynomial, each product is multiplied straight into one
integer dict over a common denominator, zero coefficients are deleted as
they appear, and the sum is made primitive once at the end; by Gauss's
lemma that is the canonical Poly the loop builds one sum at a time.  Sums
of rational scalars are not canonical (they cancel monomial factors only),
so the first term with a non-unit denominator turns the sum into a Scalar,
and every later term is added to it in order, as the loop adds it.  The
term budget and the exponent limit are checked as the loop checks them:
each product goes through ``_check_degrees``, a product of more than
budget term pairs is formed as ``x * y``, which raises when its own terms
exceed the budget, and each sum of two nonzero terms is checked against
the budget by its term count, the support of the dict.

Every running sum of scalars in the package is taken this way, by an
``Accumulator`` or ``core.sparse_sum`` (one per key), term by term in the
order its formula writes them; ``tests/test_accumulator.py`` guards the
tree.  The exceptions, each with its reason: ``AlgebroidData.frame_derive``
(routed, ``cli_check``'s median job went from 31.3 to 32.7 ms, slower in 8
of 10 alternating pairs), the Bareiss loops of ``linalg._eliminate``
(Poly arithmetic), the solver rows of ``levicivita._add_term``
(coefficient maps whose text a test pins) and the ``EForm.add`` chains of
``calculus.check_bianchi_differential`` (their key order is the order of a
failing report's residuals; a keyed sum would keep an entry that cancels
midway at its first position).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, log10
from sys import get_int_max_str_digits
from typing import Mapping, Sequence

from .errors import (
    BudgetError,
    DivisionByZeroError,
    InexactDivisionError,
    PoleError,
    ShapeError,
)

Exponents = tuple[int, ...]

# Abort threshold on the term count of any constructed scalar: its
# numerator's terms, plus its denominator's when that is not 1.  Guards
# against fraction-field swell in elimination.
DEFAULT_TERM_BUDGET = 100_000
_term_budget = DEFAULT_TERM_BUDGET


def set_term_budget(limit: int) -> int:
    """Set the per-scalar term budget, returning the previous value."""
    global _term_budget
    old = _term_budget
    _term_budget = int(limit)
    return old


def get_term_budget() -> int:
    return _term_budget


# -- packed monomials ---------------------------------------------------

_FIELD_BITS = 16
_FIELD_MASK = (1 << (_FIELD_BITS - 1)) - 1
MAX_DEGREE = _FIELD_MASK  # largest exponent and total degree a monomial may have


class _Layout:
    """Field positions of the packed monomials of ``nvars`` coordinates."""

    __slots__ = ("shifts", "top", "guard", "units")

    def __init__(self, nvars: int):
        self.shifts = tuple(_FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
        self.top = _FIELD_BITS * nvars  # shift of the total-degree field
        self.guard = sum(
            1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(nvars + 1)
        )
        # the packed monomial of each coordinate: x_i, total degree 1
        self.units = tuple((1 << s) | (1 << self.top) for s in self.shifts)

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != len(self.shifts):
            raise ShapeError(f"exponent vector {tuple(exps)} has the wrong length")
        key = 0
        for k, s in zip(exps, self.shifts):
            if k < 0:
                raise ShapeError(f"exponent vector {tuple(exps)} has a negative entry")
            if k > MAX_DEGREE:
                raise _degree_error("Poly", f"exponent {k}")
            key |= k << s
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise _degree_error("Poly", f"total degree {degree}")
        return key | (degree << self.top)

    def unpack(self, key: int) -> Exponents:
        return tuple((key >> s) & _FIELD_MASK for s in self.shifts)


_LAYOUTS: dict[int, _Layout] = {}


def _layout(nvars: int) -> _Layout:
    layout = _LAYOUTS.get(nvars)
    if layout is None:
        layout = _LAYOUTS[nvars] = _Layout(nvars)
    return layout


def _degree_error(operation: str, what: str) -> BudgetError:
    return BudgetError(
        f"{operation}: {what} exceeds the exponent limit {MAX_DEGREE} "
        f"of packed monomials"
    )


def _check_degrees(lead_a: int, lead_b: int, nvars: int) -> None:
    """Raise unless the product of monomials with these leading keys keeps
    its total degree, and so every exponent, within its field."""
    top = _FIELD_BITS * nvars
    if (lead_a + lead_b) >> top > MAX_DEGREE:
        raise _degree_error(
            "Poly.__mul__", f"product of degrees {lead_a >> top} and {lead_b >> top}"
        )


def _primitive(nvars: int, num: int, den: int, t: dict[int, int]) -> Poly:
    """The polynomial (num/den) * t for a nonzero integer dict t with no
    zero values, made primitive with a positive leading coefficient."""
    g = gcd(*t.values())
    if t[max(t)] < 0:
        g = -g
    if g != 1:
        t = {k: c // g for k, c in t.items()}
        num *= g
    h = gcd(num, den)
    if h != 1:
        num //= h
        den //= h
    return _make(nvars, num, den, t)


def _make(nvars: int, num: int, den: int, t: dict[int, int]) -> Poly:
    p = object.__new__(Poly)
    p.nvars = nvars
    p._num = num
    p._den = den
    p._t = t
    return p


_UNIT: dict[int, int] = {0: 1}  # the primitive part of every nonzero constant


class _TermsView(_MappingABC):
    """Read-only ``{exponent tuple: Fraction}`` view of a polynomial."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._t)

    def __iter__(self):
        unpack = _layout(self._poly.nvars).unpack
        return (unpack(k) for k in self._poly._t)

    def __getitem__(self, exps: Exponents) -> Fraction:
        p = self._poly
        try:
            c = p._t[_layout(p.nvars).pack(exps)]
        except (KeyError, ShapeError, BudgetError):
            raise KeyError(exps) from None
        return Fraction(p._num * c, p._den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Poly:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("nvars", "_num", "_den", "_t")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self.nvars = nvars
        self._num, self._den, self._t = 0, 1, {}
        if not terms:
            return
        pack = _layout(nvars).pack
        values = {pack(e): Fraction(c) for e, c in terms.items() if c != 0}
        if not values:
            return
        if len(values) == 1:
            (k, c), = values.items()
            self._num, self._den, self._t = c.numerator, c.denominator, {k: 1}
            return
        den = 1
        for c in values.values():
            den = den * c.denominator // gcd(den, c.denominator)
        p = _primitive(
            nvars, 1, den,
            {k: c.numerator * (den // c.denominator) for k, c in values.items()},
        )
        self._num, self._den, self._t = p._num, p._den, p._t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        cached = _POLY_ZERO.get(nvars)
        if cached is None:
            cached = _POLY_ZERO[nvars] = cls(nvars)
        return cached

    @classmethod
    def one(cls, nvars: int) -> Poly:
        cached = _POLY_ONE.get(nvars)
        if cached is None:
            cached = _POLY_ONE[nvars] = _make(nvars, 1, 1, _UNIT)
        return cached

    @classmethod
    def constant(cls, nvars: int, value) -> Poly:
        c = Fraction(value)
        if c == 0:
            return cls(nvars)
        return _make(nvars, c.numerator, c.denominator, _UNIT)

    @classmethod
    def variable(cls, nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise ShapeError(f"variable index {index} out of range for {nvars} coordinates")
        return _make(nvars, 1, 1, {_layout(nvars).units[index]: 1})

    # -- predicates ---------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        return _TermsView(self)

    def term_count(self) -> int:
        return len(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t == _UNIT and self._num == 1 and self._den == 1

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def total_degree(self) -> int:
        if not self._t:
            return 0
        return max(self._t) >> (_FIELD_BITS * self.nvars)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        unpack = _layout(self.nvars).unpack
        num, den, t = self._num, self._den, self._t
        return [(unpack(k), Fraction(num * t[k], den)) for k in sorted(t, reverse=True)]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        if not self._t:
            return other
        if not other._t:
            return self
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if d1 == d2:
            den = d1
        else:
            g = gcd(d1, d2)
            den = d1 // g * d2
            n1 *= d2 // g
            n2 *= d1 // g
        # self + other = (g/den) * (a*P1 + b*P2)
        g = gcd(n1, n2)
        a, b = n1 // g, n2 // g
        if a == 1:
            out = dict(self._t)
        else:
            out = {k: a * c for k, c in self._t.items()}
        get = out.get
        for k, c in other._t.items():
            out[k] = get(k, 0) + b * c
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
            if not out:
                return Poly.zero(self.nvars)
        return _primitive(self.nvars, g, den, out)

    def __neg__(self) -> Poly:
        return _make(self.nvars, -self._num, self._den, self._t)

    def __sub__(self, other: Poly) -> Poly:
        if not other._t:
            return self
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if not self._t or not other._t:
            return Poly.zero(self.nvars)
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        small, large = (self, other) if len(self._t) <= len(other._t) else (other, self)
        a, b = small._t, large._t
        if len(a) == 1:
            (ka, ca), = a.items()
            if not ka:  # a constant: its primitive part is 1
                if small._num == 1 and small._den == 1 and len(b) <= _term_budget:
                    return large
                out = b
            else:
                _check_degrees(ka, max(b), self.nvars)
                out = {ka + kb: ca * cb for kb, cb in b.items()}
        else:
            _check_degrees(max(a), max(b), self.nvars)
            out = {}
            get = out.get
            bitems = list(b.items())
            for ka, ca in a.items():
                for kb, cb in bitems:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
            if 0 in out.values():
                out = {k: c for k, c in out.items() if c}
        if len(out) > _term_budget:
            raise BudgetError(
                f"polynomial with {len(out)} terms exceeds budget {_term_budget}"
            )
        # Gauss's lemma: the product of the primitive parts is primitive
        if d1 == 1 and d2 == 1:
            return _make(self.nvars, n1 * n2, 1, out)
        g, h = gcd(n1, d2), gcd(n2, d1)
        return _make(self.nvars, (n1 // g) * (n2 // h), (d1 // h) * (d2 // g), out)

    def scale(self, factor: Fraction) -> Poly:
        f = Fraction(factor)
        if f == 0 or not self._t:
            return Poly(self.nvars)
        num, den = self._num * f.numerator, self._den * f.denominator
        g = gcd(num, den)
        return _make(self.nvars, num // g, den // g, self._t)

    def __pow__(self, power: int) -> Poly:
        if power < 0:
            raise ValueError("negative power on a polynomial")
        if self.total_degree() * power > MAX_DEGREE:  # refused before the long squarings
            raise _degree_error("Poly.__pow__", f"total degree {self.total_degree()} * {power}")
        result = Poly.one(self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self._num == other._num
            and self._den == other._den
            and self._t == other._t
        )

    __hash__ = None  # mutable dict inside; equality is structural

    def constant_ratio(self, other: Poly) -> tuple[int, int] | None:
        """For nonzero self and other, the rational c with self = c * other
        as a reduced (numerator, positive denominator) pair, or None when
        no constant c does (the primitive parts differ)."""
        if not other._t:
            raise ZeroDivisionError("ratio to the zero polynomial")
        if self._t is not other._t and self._t != other._t:
            return None
        num, den = self._num * other._den, self._den * other._num
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        return num // g, den // g

    def divide_exact(self, divisor: Poly) -> Poly:
        """Quotient self / divisor when the division is exact (used by
        fraction-free elimination, where exactness is guaranteed).  Raises
        ``InexactDivisionError`` when it is not."""
        dt = divisor._t
        if not dt:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if divisor.is_one():
            return self
        n1, d1, n2, d2 = self._num, self._den, divisor._num, divisor._den
        num, den = n1 * d2, d1 * n2
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        num //= g
        den //= g
        if divisor.is_constant() or not self._t:
            return _make(self.nvars, num, den, self._t)
        # Gauss's lemma: the quotient of the primitive parts is an integer
        # polynomial, primitive with a positive leading coefficient
        lead = max(dt)
        lead_c = dt[lead]
        tail = [(k - lead, c) for k, c in dt.items() if k != lead]
        guard = _layout(self.nvars).guard
        rest = dict(self._t)
        heap = [-k for k in rest]
        heapify(heap)
        quotient: dict[int, int] = {}
        get = rest.get
        while heap:
            e = -heappop(heap)
            c = rest.pop(e, None)
            if c is None:
                continue  # a stale key: the term cancelled after it was pushed
            if ((e | guard) - lead) & guard != guard:
                raise InexactDivisionError(
                    "division is not exact: the leading monomial does not divide"
                )
            q, r = divmod(c, lead_c)
            if r:
                raise InexactDivisionError(
                    "division is not exact: a quotient coefficient is not integral"
                )
            quotient[e - lead] = q
            for off, dc in tail:
                k = e + off
                v = get(k)
                if v is None:
                    rest[k] = -q * dc
                    heappush(heap, -k)
                else:
                    v -= q * dc
                    if v:
                        rest[k] = v
                    else:
                        del rest[k]
        return _make(self.nvars, num, den, quotient)

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to coordinate ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise ShapeError(f"coordinate index {index} out of range")
        layout = _layout(self.nvars)
        shift = layout.shifts[index]
        unit = layout.units[index]
        # distinct monomials have distinct derivatives, so nothing collects
        out = {}
        for k, c in self._t.items():
            e = (k >> shift) & _FIELD_MASK
            if e:
                out[k - unit] = c * e
        return _primitive(self.nvars, self._num, self._den, out) if out else Poly(self.nvars)

    def eval_at(self, coords: Sequence[Fraction]) -> Fraction:
        if len(coords) != self.nvars:
            raise ShapeError("point dimension does not match coordinate count")
        unpack = _layout(self.nvars).unpack
        total = Fraction(0)
        for k, c in self._t.items():
            v = Fraction(c)
            for x, e in zip(coords, unpack(k)):
                if e:
                    v *= x**e
            total += v
        return total * self._num / self._den

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={dict(self.sorted_terms())!r})"


_POLY_ZERO: dict[int, "Poly"] = {}
_POLY_ONE: dict[int, "Poly"] = {}
_SCALAR_ZERO: dict[int, "Scalar"] = {}
_SCALAR_ONE: dict[int, "Scalar"] = {}


def _monomial_gcd(a: dict[int, int], b: dict[int, int], nvars: int) -> int:
    """The packed monomial gcd of the keys of a and b, 0 when it is 1."""
    if 0 in a or 0 in b:
        return 0
    layout = _layout(nvars)
    shift = degree = 0
    for s in layout.shifts:
        m = min((k >> s) & _FIELD_MASK for t in (a, b) for k in t)
        shift |= m << s
        degree += m
    return shift | degree << layout.top


def _shift_down(p: Poly, shift: int) -> Poly:
    return _make(p.nvars, p._num, p._den, {k - shift: c for k, c in p._t.items()})


class Scalar:
    """Element of the fraction field of multivariate polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None or (den._t == _UNIT and den._num == 1 and den._den == 1):
            # polynomial fast path: nothing to cancel or rescale
            den = _POLY_ONE.get(num.nvars) or Poly.one(num.nvars)
            terms = len(num._t)
        else:
            if not den._t:
                raise DivisionByZeroError("denominator is the zero polynomial")
            if num.nvars != den.nvars:
                raise ShapeError("numerator and denominator disagree on coordinate count")
            if not num._t:
                den = Poly.one(num.nvars)
            else:
                shift = _monomial_gcd(num._t, den._t, num.nvars)
                if shift:
                    num = _shift_down(num, shift)
                    den = _shift_down(den, shift)
                lead = den._t[max(den._t)]
                if den._num != 1 or den._den != lead:
                    # rescale num and den by 1/(leading coefficient of den)
                    n, d = num._num * den._den, num._den * den._num * lead
                    if d < 0:
                        n, d = -n, -d
                    g = gcd(n, d)
                    num = _make(num.nvars, n // g, d // g, num._t)
                    den = _make(den.nvars, 1, lead, den._t)
                if den.is_constant():
                    # a constant denominator is folded into the numerator
                    den = Poly.one(num.nvars)
            # a denominator of 1 is not counted, as on the fast path
            terms = len(num._t) if den.is_constant() else len(num._t) + len(den._t)
        if terms > _term_budget:
            raise BudgetError(f"scalar with {terms} terms exceeds budget {_term_budget}")
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Scalar:
        cached = _SCALAR_ZERO.get(nvars)
        if cached is None:
            cached = _SCALAR_ZERO[nvars] = cls(Poly.zero(nvars))
        return cached

    @classmethod
    def one(cls, nvars: int) -> Scalar:
        cached = _SCALAR_ONE.get(nvars)
        if cached is None:
            cached = _SCALAR_ONE[nvars] = cls(Poly.one(nvars))
        return cached

    @classmethod
    def constant(cls, nvars: int, value) -> Scalar:
        return cls(Poly.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> Scalar:
        return cls(Poly.variable(nvars, index))

    # -- predicates ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return not self.num._t

    def is_one(self) -> bool:
        return self.num == self.den

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def term_count(self) -> int:
        return len(self.num._t) + len(self.den._t)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not other.num._t:
            return self
        if not self.num._t:
            return other
        if self.den is other.den or self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> Scalar:
        s = Scalar.__new__(Scalar)
        s.num = -self.num
        s.den = self.den
        return s

    def __sub__(self, other: Scalar) -> Scalar:
        if not other.num._t:
            return self
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        if not self.num._t or not other.num._t:
            return Scalar.zero(self.num.nvars)
        den = self.den
        if den is other.den and den is _POLY_ONE.get(den.nvars):
            return Scalar(self.num * other.num)
        return Scalar(self.num * other.num, den * other.den)

    def __truediv__(self, other: Scalar) -> Scalar:
        if other.is_zero():
            raise DivisionByZeroError("division by the zero scalar")
        if self.is_zero():
            return Scalar.zero(self.nvars)
        return Scalar(self.num * other.den, self.den * other.num)

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise DivisionByZeroError("inverse of the zero scalar")
        return Scalar(self.den, self.num)

    def __pow__(self, power: int) -> Scalar:
        if power < 0:
            return self.inverse() ** (-power)
        return Scalar(self.num**power, self.den**power)

    def scale(self, factor) -> Scalar:
        f = Fraction(factor)
        if f == 0:
            return Scalar.zero(self.nvars)
        return Scalar(self.num.scale(f), self.den)

    def equals(self, other: Scalar) -> bool:
        """Exact equality by cross-multiplication."""
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.equals(other)

    __hash__ = None

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> Scalar:
        """Exact partial derivative (quotient rule)."""
        if self.den.is_one():
            return Scalar(self.num.diff(index))
        return Scalar(
            self.num.diff(index) * self.den - self.num * self.den.diff(index),
            self.den * self.den,
        )

    def eval_at(self, point: "Point | Sequence[Fraction]") -> Fraction:
        coords = point.coords if isinstance(point, Point) else tuple(point)
        d = self.den.eval_at(coords)
        if d == 0:
            raise PoleError(f"denominator vanishes at {tuple(map(str, coords))}")
        return self.num.eval_at(coords) / d

    def __repr__(self) -> str:
        return f"Scalar({self.num!r}, {self.den!r})"


class Accumulator:
    """A sum of scalars and products of scalars, taken term by term.

    ``value()`` is exactly the Scalar that the loop ``acc = start``, then
    ``acc = acc + x`` or ``acc - x`` for each ``add(x, sign)`` and
    ``acc = acc + x * y`` or ``acc - x * y`` for each
    ``add_product(x, y, sign)``, returns, and the same ``BudgetError`` is
    raised at the same term.  Polynomial terms are summed into one integer
    dict over a common denominator; from the first rational term on, the
    sum is a Scalar and every term is added to it in order."""

    __slots__ = ("nvars", "_first", "_t", "_den", "_sum")

    def __init__(self, nvars: int, start: Scalar | None = None):
        self.nvars = nvars
        self._first: tuple | None = None  # the one term so far: (x, y or None, sign)
        self._t: dict[int, int] | None = None  # the polynomial sum times _den
        self._den = 1
        self._sum: Scalar | None = None  # the sum from a rational term or value() on
        if start is not None:
            self.add(start)

    def add(self, x: Scalar, sign: int = 1) -> None:
        if not x.num._t:
            return
        if self._sum is None:
            if x.den._t is _UNIT:  # a polynomial: its denominator is Poly.one
                self._poly_term(x, None, sign)
                return
            self.value()
        self._sum = self._sum + x if sign > 0 else self._sum - x

    def add_product(self, x: Scalar, y: Scalar, sign: int = 1) -> None:
        a, b = x.num._t, y.num._t
        if not a or not b:
            return
        if self._sum is None:
            if x.den._t is _UNIT and y.den._t is _UNIT:
                # the checks of the product x * y, made where the loop makes them
                if len(a) > len(b):
                    a, b = b, a
                if len(a) * len(b) > _term_budget:
                    self.add(x * y, sign)  # may have fewer terms; else it raises
                    return
                if len(a) > 1 or 0 not in a:
                    _check_degrees(max(a), max(b), self.nvars)
                self._poly_term(x, y, sign)
                return
            self.value()
        self._sum = self._sum + x * y if sign > 0 else self._sum - x * y

    def value(self) -> Scalar:
        """The sum; terms added after it go to a Scalar sum."""
        s = self._sum
        if s is None:
            if self._first is not None:
                x, y, sign = self._first
                s = x if y is None else x * y
                if sign < 0:
                    s = -s
            elif self._t:
                # Gauss's lemma: made primitive once, the sum is the loop's Poly
                s = Scalar.__new__(Scalar)
                s.num = _primitive(self.nvars, 1, self._den, self._t)
                s.den = Poly.one(self.nvars)
            else:
                s = Scalar.zero(self.nvars)
            self._sum = s
        return s

    def _poly_term(self, x: Scalar, y: Scalar | None, sign: int) -> None:
        if self._t is None:
            if self._first is None:
                self._first = (x, y, sign)
                return
            self._t = {}
            self._put(*self._first)
            self._first = None
            summed = True
        else:
            summed = bool(self._t)  # 0 + term makes no sum in the loop
        self._put(x, y, sign)
        # the loop checks each sum of two nonzero terms
        if summed and len(self._t) > _term_budget:
            raise BudgetError(
                f"scalar with {len(self._t)} terms exceeds budget {_term_budget}"
            )

    def _put(self, x: Scalar, y: Scalar | None, sign: int) -> None:
        """Adds sign * x, or sign * x * y, into the dict."""
        p = x.num
        if y is None:
            num, den, a, b = sign * p._num, p._den, _UNIT, p._t
        else:
            q = y.num
            num, den, a, b = sign * p._num * q._num, p._den * q._den, p._t, q._t
            if len(a) > len(b):
                a, b = b, a
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
        t, total = self._t, self._den
        if total % den:
            # the common denominator total * m, m = den / gcd(total, den)
            g = gcd(total, den)
            m = den // g
            for k in t:
                t[k] *= m
            self._den = total * m
            num *= total // g
        elif total != 1:
            num *= total // den
        get = t.get
        for ka, ca in a.items():
            f = num * ca
            for kb, cb in b.items():
                k = ka + kb
                v = get(k, 0) + f * cb
                if v:
                    t[k] = v
                else:
                    del t[k]


@dataclass(frozen=True)
class Point:
    """A rational chart point for spot evaluation."""

    coords: tuple[Fraction, ...]

    @classmethod
    def of(cls, *values) -> Point:
        return cls(tuple(Fraction(v) for v in values))


# -- serialization ----------------------------------------------------
#
# Output conforms to the parse grammar: terms in graded-lex order, explicit
# "*", "^" for powers, and a leading negative coefficient attached to the
# rational literal of the first term.


def _term_to_text(exps: Exponents, coeff: Fraction, names: Sequence[str]) -> str:
    factors = []
    for name, k in zip(names, exps):
        if k == 1:
            factors.append(name)
        elif k > 1:
            factors.append(f"{name}^{k}")
    mono = "*".join(factors)
    c = abs(coeff)
    if mono and c == 1:
        return mono
    try:
        text = str(c)
    except ValueError:  # a numerator or denominator past the int-string limit
        digits = int(log10(max(c.numerator, c.denominator))) + 1
        limit = get_int_max_str_digits()
        raise BudgetError(
            f"coefficient of {digits} digits exceeds the int-string limit of {limit} digits"
        ) from None
    return f"{text}*{mono}" if mono else text


def poly_to_text(p: Poly, names: Sequence[str]) -> str:
    if len(names) != p.nvars:
        raise ShapeError("coordinate name count does not match polynomial")
    if p.is_zero():
        return "0"
    parts = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        body = _term_to_text(exps, coeff, names)
        if i == 0:
            if coeff < 0:
                # grammar has no unary minus on bare names: fold the sign
                # into an explicit rational coefficient
                if body[0].isdigit():
                    parts.append("-" + body)
                else:
                    parts.append(f"-1*{body}")
            else:
                parts.append(body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts)


def scalar_to_text(s: Scalar, names: Sequence[str]) -> str:
    if s.den.is_one():
        return poly_to_text(s.num, names)
    return f"({poly_to_text(s.num, names)})/({poly_to_text(s.den, names)})"
