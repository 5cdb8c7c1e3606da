"""Truncated series engine against small hand oracles and round trips."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from apostol.polyring import MultiPoly, VarId
from apostol.series import (
    NotAUnitError,
    OrderExceededError,
    PowerSeries,
    ValuationMismatchError,
)

from helpers import random_poly, random_series

X = MultiPoly.var(VarId.X)
Z = MultiPoly.var(VarId.Z)
ONE = MultiPoly.one()
ZERO = MultiPoly.zero()


def exp_t(order: int) -> PowerSeries:
    return PowerSeries.exp_linear(ONE, order)


def test_exp_linear_definition():
    s = PowerSeries.exp_linear(X, 4)
    assert list(s.coeffs) == [ONE, X, X * X * Fraction(1, 2), X**3 * Fraction(1, 6)]


def test_exp_of_zero_is_one():
    assert PowerSeries.exp_linear(MultiPoly.zero(), 5) == PowerSeries.one(5)


def test_exp_symbolic_log_specializes_to_one():
    # a = 1 is the specialization La -> 0 of the symbolic expansion of a^t
    s = PowerSeries.exp_linear(MultiPoly.var(VarId.LA), 5)
    specialized = [c.substitute({VarId.LA: 0}) for c in s.coeffs]
    assert specialized == list(PowerSeries.one(5).coeffs)


def test_mul_truncates_to_min_order():
    one_plus_t = PowerSeries([ONE, ONE, MultiPoly.zero()])
    one_minus_t = PowerSeries([ONE, -ONE, MultiPoly.zero()])
    prod = one_plus_t * one_minus_t
    assert prod == PowerSeries([ONE, MultiPoly.zero(), -ONE])
    assert len((exp_t(6) * PowerSeries.one(4)).coeffs) == 4


def test_mul_identity():
    f = random_series(random.Random(1), 5, max_degree=2, max_terms=3)
    assert f * PowerSeries.one(5) == f


def test_product_of_exponentials_binomial_oracle():
    n_ord = 7
    prod = PowerSeries.exp_linear(X, n_ord) * PowerSeries.exp_linear(Z, n_ord)
    for n in range(n_ord):
        expected = MultiPoly.zero()
        for j in range(n + 1):
            expected = expected + comb(n, j) * X**j * Z ** (n - j) * Fraction(1, factorial(n))
        assert prod.coeffs[n] == expected


def test_invert_geometric():
    f = PowerSeries([ONE, -ONE, MultiPoly.zero(), MultiPoly.zero()])
    assert f.invert() == PowerSeries([ONE, ONE, ONE, ONE])


def test_invert_constant():
    assert PowerSeries([MultiPoly.const(2)]).invert() == PowerSeries([MultiPoly.const(Fraction(1, 2))])


def test_invert_minus_exp_minus_one():
    # -(e^t) - 1 = -2 - t - t^2/2; solve (f * g = 1) by hand forward substitution
    f = exp_t(3).scale(-1) + PowerSeries.one(3).scale(-1)
    g = f.invert()
    f0, f1, f2 = (c.constant_value() for c in f.coeffs)
    g0 = 1 / f0
    g1 = -(f1 * g0) / f0
    g2 = -(f1 * g1 + f2 * g0) / f0
    assert [c.constant_value() for c in g.coeffs] == [g0, g1, g2]
    assert (g0, g1, g2) == (Fraction(-1, 2), Fraction(1, 4), Fraction(0))


def test_invert_requires_rational_unit():
    with pytest.raises(NotAUnitError):
        PowerSeries([X, ONE]).invert()
    with pytest.raises(NotAUnitError):
        PowerSeries([MultiPoly.zero(), ONE]).invert()
    symbolic_lead = MultiPoly.var(VarId.LB) - MultiPoly.var(VarId.LA)
    with pytest.raises(NotAUnitError):
        PowerSeries([MultiPoly.zero(), symbolic_lead, ONE]).divide_with_valuation(
            PowerSeries([MultiPoly.zero(), symbolic_lead, ONE]), 1
        )


def test_divide_bernoulli_generating_series():
    import classical_oracle as co

    num = PowerSeries.t_power(1, 6)
    den = exp_t(6) + PowerSeries.one(6).scale(-1)
    q = num.divide_with_valuation(den, 1)
    numbers = co.numbers(co.apostol_bernoulli(1, 1, 4))
    got = [q.extract(n).constant_value() for n in range(5)]
    assert got == numbers
    assert [c.constant_value() for c in q.coeffs[:4]] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 12), Fraction(0)
    ]


def test_divide_t_squared_by_itself():
    t2 = PowerSeries.t_power(2, 5)
    assert t2.divide_with_valuation(t2, 2) == PowerSeries.one(3)


def test_divide_valuation_mismatch():
    num = PowerSeries.t_power(1, 5)
    den = exp_t(5) + PowerSeries.one(5)  # constant term 2, valuation 0
    with pytest.raises(ValuationMismatchError):
        num.divide_with_valuation(den, 1)


def test_divide_takes_only_non_negative_int_valuations():
    # Unchecked, True acted as valuation 1 and 0.0 failed with a bare TypeError.
    num = PowerSeries.t_power(1, 5)
    den = exp_t(5) + PowerSeries.one(5).scale(-1)  # valuation 1
    for bad in (-1, True, 0.0, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="^expected_valuation must be an int >= 0, got "):
            num.divide_with_valuation(den, bad)
    assert num.divide_with_valuation(den, 1).valuation() == 0


def test_divide_checks_numerator_valuation():
    num = PowerSeries.one(5)
    den = exp_t(5) + PowerSeries.one(5).scale(-1)
    with pytest.raises(ValuationMismatchError):
        num.divide_with_valuation(den, 1)
    # A numerator no longer than the valuation leaves no coefficient to divide.
    den = exp_t(3) + PowerSeries.one(3).scale(-1)
    with pytest.raises(OrderExceededError, match="^division by the valuation leaves no known "):
        PowerSeries([ZERO]).divide_with_valuation(den, 1)


def test_extract():
    assert PowerSeries.exp_linear(X, 5).extract(3) == X**3
    assert PowerSeries.one(1).extract(0) == ONE
    with pytest.raises(OrderExceededError):
        PowerSeries.one(3).extract(3)


def test_extract_euler_polynomial():
    import classical_oracle as co
    from helpers import lift

    num = PowerSeries.exp_linear(X, 4).scale(2)
    den = exp_t(4) + PowerSeries.one(4)
    q = num.divide_with_valuation(den, 0)
    e2 = lift(co.apostol_euler(1, 1, 2))[2]
    assert q.extract(2) == e2 == X * X - X


# -- randomized properties ----------------------------------------------------


def test_product_member_is_the_extracted_member_of_the_product():
    # Random coefficients carry denominators that n! cancels in part, in full
    # or not at all; orders differ, so the product truncates to the smaller.
    rng = random.Random(505)
    for _ in range(20):
        f = random_series(rng, rng.randint(1, 8), max_degree=2, max_terms=3)
        g = random_series(rng, rng.randint(1, 8), max_degree=2, max_terms=3)
        prod = f * g
        for n in range(len(prod.coeffs)):
            assert f.product_member(g, n) == prod.extract(n), n


def test_exp_derivative_recurrence():
    rng = random.Random(404)
    for _ in range(10):
        p = random_poly(rng, max_degree=2, max_terms=3)
        s = PowerSeries.exp_linear(p, 9)
        for n in range(8):
            assert (n + 1) * s.coeffs[n + 1] == p * s.coeffs[n]


@pytest.mark.parametrize("order", [0, -2])
def test_every_constructor_needs_order_at_least_one(order):
    message = "^order must be an int >= 1, got "
    with pytest.raises(ValueError, match=message):
        PowerSeries([ONE] * order)
    with pytest.raises(ValueError, match=message):
        PowerSeries.exp_linear(X, order)
    with pytest.raises(ValueError, match=message):
        PowerSeries.one(order)
    with pytest.raises(ValueError, match=message):
        PowerSeries.t_power(0, order)


@pytest.mark.parametrize("coeffs", [[1, 2.5], ["x"], [Fraction(1)]])
def test_constructor_takes_only_polynomial_coefficients(coeffs):
    # Unchecked, [1, 2.5] built a series whose product with one() failed with a bare
    # AttributeError; the error names the first coefficient that is not a MultiPoly.
    with pytest.raises(TypeError, match=f"^series coefficients must be MultiPoly values, "
                                        f"got {re.escape(repr(coeffs[0]))}$"):
        PowerSeries(coeffs)
    with pytest.raises(TypeError, match="got 2.5$"):
        PowerSeries([ONE, 2.5])


def test_constructors_take_only_int_orders():
    # An order of True used to build an order-1 series, and 2.0 failed with a bare TypeError.
    constructors = {
        "one": PowerSeries.one,
        "exp_linear": lambda order: PowerSeries.exp_linear(X, order),
        "t_power": lambda order: PowerSeries.t_power(0, order),
    }
    for name, build in constructors.items():
        for bad in (True, False, 2.0, "2", None, Fraction(2)):
            with pytest.raises(ValueError, match="^order must be an int >= 1, got "):
                build(bad)
        assert len(build(2).coeffs) == 2, name


def test_t_power_takes_only_non_negative_int_exponents():
    # t^-1 is no power series; unchecked, it would come back as the zero series.
    for bad in (-1, -3, True, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="^m must be an int >= 0, got "):
            PowerSeries.t_power(bad, 3)
    assert PowerSeries.t_power(3, 3) == PowerSeries([ZERO] * 3)
    assert PowerSeries.t_power(2, 3).valuation() == 2


def test_member_readers_take_only_non_negative_int_indices_below_the_order():
    # Unchecked, -1 would read the last known coefficient and True the one of t^1.
    series = PowerSeries.exp_linear(X, 3)
    longer = PowerSeries.exp_linear(Z, 4)
    for read in (series.extract, lambda n: series.product_member(longer, n)):
        for bad in (-1, True, False, 1.0, Fraction(1), "1", None):
            with pytest.raises(ValueError, match="^n must be an int >= 0, got "):
                read(bad)
        with pytest.raises(OrderExceededError, match="^coefficient of t\\^3 requested from a "):
            read(3)
    assert series.extract(2) == X * X
    assert series.product_member(longer, 2) == (X + Z) ** 2


def test_series_equal_only_series_and_show_at_most_four_coefficients():
    # Against any other value __eq__ defers, so a series equals no polynomial.
    assert PowerSeries.one(1).__eq__(ONE) is NotImplemented
    assert PowerSeries.one(1) != ONE
    assert repr(PowerSeries.exp_linear(X, 2)) == "PowerSeries(order=2: [t^0] 1, [t^1] x)"
    assert repr(PowerSeries.exp_linear(X, 5)) == (
        "PowerSeries(order=5: [t^0] 1, [t^1] x, [t^2] 1/2*x^2, [t^3] 1/6*x^3, ...)")


def test_valuation():
    assert PowerSeries([ZERO, ZERO]).valuation() is None
    assert PowerSeries([ZERO, X]).valuation() == 1
    assert PowerSeries.one(2).valuation() == 0
