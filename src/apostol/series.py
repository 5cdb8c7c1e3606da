"""Truncated formal power series in t with polynomial coefficients.

Every series carries an explicit truncation order: a series of order N
knows its coefficients of t^0 .. t^(N-1) and claims nothing beyond.
Arithmetic never manufactures knowledge, so products truncate to the
smaller operand order and division by a series of valuation v shrinks the
order by v.  Silent truncation loss is the classic failure mode of series
code; keeping the order on the value makes it checkable.

Division is restricted to denominators whose lowest nonzero coefficient is
a nonzero rational constant.  That keeps coefficients inside the polynomial
ring: a symbolic leading coefficient such as Lb - La has no inverse there,
and the one family case that needs it (a unit alpha) is only admitted for
the bases where the leading coefficient is the rational 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .polyring import MultiPoly, Scalar, sum_of_products


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class NotAUnitError(SeriesError):
    """Inversion or division needs a nonzero rational leading coefficient."""


class ValuationMismatchError(SeriesError):
    """A series does not have the valuation the operation requires."""


class OrderExceededError(SeriesError):
    """A coefficient beyond the truncation order was requested."""


class PowerSeries:
    """A formal power series in t, truncated at a fixed positive order.

    coeffs[n] is the coefficient of t^n; len(coeffs) equals the order.
    Values are immutable; all operations return new series.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: list[MultiPoly] | tuple[MultiPoly, ...]):
        if len(coeffs) < 1:
            raise ValueError("a power series needs order >= 1")
        self._coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls([MultiPoly.zero()] * order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls([MultiPoly.one()] + [MultiPoly.zero()] * (order - 1))

    @classmethod
    def t_power(cls, m: int, order: int) -> PowerSeries:
        """The monomial t^m (the zero series if m >= order)."""
        coeffs = [MultiPoly.zero()] * order
        if 0 <= m < order:
            coeffs[m] = MultiPoly.one()
        return cls(coeffs)

    @classmethod
    def exp_linear(cls, coefficient: MultiPoly, order: int) -> PowerSeries:
        """exp(coefficient * t): the coefficient of t^n is coefficient^n / n!."""
        if order < 1:
            raise ValueError("a power series needs order >= 1")
        coeffs = [MultiPoly.one()]
        for n in range(1, order):
            coeffs.append(sum_of_products([(Fraction(1, n), coeffs[-1], coefficient)]))
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> MultiPoly:
        if n >= len(self._coeffs):
            raise OrderExceededError(
                f"coefficient of t^{n} requested from a series of order {len(self._coeffs)}"
            )
        return self._coeffs[n]

    def extract(self, n: int) -> MultiPoly:
        """The n-th family member n! * [t^n], as generating functions define it."""
        return self.coefficient(n) * factorial(n)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self._coeffs):
            if c:
                return n
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PowerSeries) -> PowerSeries:
        n = min(len(self._coeffs), len(other._coeffs))
        return PowerSeries([self._coeffs[i] + other._coeffs[i] for i in range(n)])

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        n = min(len(self._coeffs), len(other._coeffs))
        return PowerSeries([self._coeffs[i] - other._coeffs[i] for i in range(n)])

    def __neg__(self) -> PowerSeries:
        return PowerSeries([-c for c in self._coeffs])

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        """Cauchy product, truncated to the smaller operand order."""
        a, b = self._coeffs, other._coeffs
        return PowerSeries([
            sum_of_products((1, a[i], b[k - i]) for i in range(k + 1))
            for k in range(min(len(a), len(b)))
        ])

    def scale(self, c: MultiPoly | Scalar) -> PowerSeries:
        """Multiply every coefficient by the same ring element."""
        return PowerSeries([co * c for co in self._coeffs])

    def invert(self) -> PowerSeries:
        """The series g with self * g = 1 modulo t^order.

        Requires the constant term to be a nonzero rational; solves the
        triangular system g_n = -(1/f_0) * sum_{i=1..n} f_i g_{n-i}.
        """
        f0 = self._coeffs[0].constant_value()
        if f0 is None:
            raise NotAUnitError(
                f"constant term {self._coeffs[0]} contains variables and cannot be inverted"
            )
        if f0 == 0:
            raise NotAUnitError("constant term is zero; use division with valuation instead")
        f = self._coeffs
        out = [MultiPoly.const(1 / f0)]
        weight = -1 / f0
        for n in range(1, len(f)):
            out.append(sum_of_products((weight, f[i], out[n - i]) for i in range(1, n + 1)))
        return PowerSeries(out)

    def divide_with_valuation(self, den: PowerSeries, expected_valuation: int) -> PowerSeries:
        """self / den where den vanishes to order exactly expected_valuation.

        Both series are shifted down by t^expected_valuation (which must
        annihilate the numerator's low coefficients too), then the shifted
        denominator is inverted.  The result's order shrinks by the
        valuation: that loss is real, not an implementation detail.
        """
        v = expected_valuation
        if v < 0:
            raise ValueError("valuation must be non-negative")
        actual = den.valuation()
        if actual != v:
            raise ValuationMismatchError(
                f"denominator has valuation {actual}, expected {v}"
            )
        lead = den._coeffs[v].constant_value()
        if lead is None:
            raise NotAUnitError(
                f"denominator leading coefficient {den._coeffs[v]} is not a rational unit"
            )
        for n in range(min(v, len(self._coeffs))):
            if self._coeffs[n]:
                raise ValuationMismatchError(
                    f"numerator has a nonzero coefficient at t^{n}, below the valuation {v}"
                )
        order = min(len(self._coeffs), len(den._coeffs)) - v
        if order < 1:
            raise OrderExceededError(
                "division by the valuation leaves no known coefficients"
            )
        num_shifted = PowerSeries(self._coeffs[v:v + order])
        den_shifted = PowerSeries(den._coeffs[v:v + order])
        return num_shifted * den_shifted.invert()

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"[t^{n}] {c}" for n, c in enumerate(self._coeffs[:4]))
        if len(self._coeffs) > 4:
            shown += ", ..."
        return f"PowerSeries(order={len(self._coeffs)}: {shown})"
