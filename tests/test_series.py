"""Truncated series engine against small hand oracles and round trips."""

from __future__ import annotations

import random
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

from helpers import random_invertible_series, random_poly, random_series

X = MultiPoly.var(VarId.X)
Z = MultiPoly.var(VarId.Z)
ONE = MultiPoly.one()


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
    assert (exp_t(6) * PowerSeries.one(4)).order == 4


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
    f = (-exp_t(3)) - PowerSeries.one(3)
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
    den = exp_t(6) - PowerSeries.one(6)
    q = num.divide_with_valuation(den, 1)
    numbers = co.bernoulli_numbers(4)
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


def test_divide_checks_numerator_valuation():
    num = PowerSeries.one(5)
    den = exp_t(5) - PowerSeries.one(5)
    with pytest.raises(ValuationMismatchError):
        num.divide_with_valuation(den, 1)


def test_extract():
    assert PowerSeries.exp_linear(X, 5).extract(3) == X**3
    assert PowerSeries.one(1).extract(0) == ONE
    with pytest.raises(OrderExceededError):
        PowerSeries.one(3).extract(3)


def test_extract_euler_polynomial():
    import classical_oracle as co
    from helpers import xpoly_to_multipoly

    num = PowerSeries.exp_linear(X, 4).scale(2)
    den = exp_t(4) + PowerSeries.one(4)
    q = num.divide_with_valuation(den, 0)
    e2 = xpoly_to_multipoly(co.euler_polys(2)[2])
    assert q.extract(2) == e2 == X * X - X


# -- randomized properties ----------------------------------------------------


def test_invert_round_trip():
    rng = random.Random(101)
    for _ in range(30):
        order = rng.randint(2, 12)
        f = random_invertible_series(rng, order)
        assert f * f.invert() == PowerSeries.one(order)


def test_divide_round_trip():
    rng = random.Random(202)
    for _ in range(30):
        order = rng.randint(3, 10)
        v = rng.randint(0, 2)
        g_coeffs = [MultiPoly.zero()] * v
        lead = Fraction(0)
        while lead == 0:
            lead = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        g_coeffs.append(MultiPoly.const(lead))
        g_coeffs += [random_poly(rng, max_degree=2, max_terms=2)
                     for _ in range(order - v - 1)]
        g = PowerSeries(g_coeffs)
        f = random_series(rng, order, max_degree=2, max_terms=3)
        assert (f * g).divide_with_valuation(g, v) == PowerSeries(f.coeffs[:order - v])


def test_mul_against_naive_convolution():
    rng = random.Random(303)
    for _ in range(20):
        order = rng.randint(1, 8)
        f = random_series(rng, order, max_degree=2, max_terms=3)
        g = random_series(rng, order, max_degree=2, max_terms=3)
        prod = f * g
        for n in range(order):
            acc = MultiPoly.zero()
            for i in range(order):
                for j in range(order):
                    if i + j == n:
                        acc = acc + f.coeffs[i] * g.coeffs[j]
            assert prod.coeffs[n] == acc


def test_exp_derivative_recurrence():
    rng = random.Random(404)
    for _ in range(10):
        p = random_poly(rng, max_degree=2, max_terms=3)
        s = PowerSeries.exp_linear(p, 9)
        for n in range(8):
            assert (n + 1) * s.coeffs[n + 1] == p * s.coeffs[n]
