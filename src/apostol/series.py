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

from .polyring import MultiPoly, Scalar, check_int, sum_of_products

__all__ = ["NotAUnitError", "OrderExceededError", "PowerSeries", "SeriesError",
           "ValuationMismatchError"]


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
        check_int("order", len(coeffs), 1)
        for c in coeffs:
            if not isinstance(c, MultiPoly):
                raise TypeError(f"series coefficients must be MultiPoly values, got {c!r}")
        self._coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.t_power(0, order)

    @classmethod
    def t_power(cls, m: int, order: int) -> PowerSeries:
        """The monomial t^m for an int m >= 0 (the zero series if m >= order)."""
        check_int("m", m, 0)
        coeffs = [MultiPoly.zero()] * check_int("order", order, 1)
        if m < order:
            coeffs[m] = MultiPoly.one()
        return cls(coeffs)

    @classmethod
    def exp_linear(cls, coefficient: MultiPoly, order: int) -> PowerSeries:
        """exp(coefficient * t): the coefficient of t^n is coefficient^n / n!."""
        check_int("order", order, 1)
        if not isinstance(coefficient, MultiPoly):
            raise TypeError(f"exp_linear needs a MultiPoly coefficient, got {coefficient!r}")
        coeffs = [MultiPoly.one()]
        for n in range(1, order):
            coeffs.append(sum_of_products([(Fraction(1, n), coeffs[-1], coefficient)]))
        return cls(coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def extract(self, n: int) -> MultiPoly:
        """The n-th family member n! * [t^n], as generating functions define it."""
        if check_int("n", n, 0) >= len(self._coeffs):
            raise OrderExceededError(
                f"coefficient of t^{n} requested from a series of order {len(self._coeffs)}"
            )
        return self._coeffs[n] * factorial(n)

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

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        """Cauchy product, truncated to the smaller operand order."""
        a, b = self._coeffs, other._coeffs
        return PowerSeries([
            sum_of_products((1, a[i], b[k - i]) for i in range(k + 1))
            for k in range(min(len(a), len(b)))
        ])

    def product_member(self, other: PowerSeries, n: int) -> MultiPoly:
        """The member n! [t^n] (self * other), for an n both operands know.

        One sum_of_products call that is passed n!, so the factorial cancels
        against the sum's denominator before its single normalization; no
        product series is built.  It equals (self * other).extract(n), the
        reference route, and refuses the same indices.
        """
        a, b = self._coeffs, other._coeffs
        order = min(len(a), len(b))
        if check_int("n", n, 0) >= order:
            raise OrderExceededError(
                f"coefficient of t^{n} requested from a product of order {order}"
            )
        return sum_of_products(((1, a[i], b[n - i]) for i in range(n + 1)), factorial(n))

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
        annihilate the numerator's low coefficients too), and the shifted
        denominator is inverted (_shifted_inverse).  The result's order
        shrinks by the valuation: that loss is real, not an implementation
        detail.
        """
        inverse = den._shifted_inverse(expected_valuation)
        v = expected_valuation
        for n in range(min(v, len(self._coeffs))):
            if self._coeffs[n]:
                raise ValuationMismatchError(
                    f"numerator has a nonzero coefficient at t^{n}, below the valuation {v}"
                )
        if len(self._coeffs) <= v:
            raise OrderExceededError(
                "division by the valuation leaves no known coefficients"
            )
        return PowerSeries(self._coeffs[v:]) * inverse

    def _shifted_inverse(self, valuation: int) -> PowerSeries:
        """1 / (self / t^valuation), of order len(self) - valuation.

        self must vanish to order exactly valuation (ValuationMismatchError);
        invert refuses a lowest coefficient that is not a rational constant.
        divide_with_valuation multiplies the shifted numerator by it; the
        family core, whose numerator is a monomial, shifts and scales it.
        """
        v = check_int("expected_valuation", valuation, 0)
        actual = self.valuation()
        if actual != v:
            raise ValuationMismatchError(
                f"denominator has valuation {actual}, expected {v}"
            )
        return PowerSeries(self._coeffs[v:]).invert()

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
