"""Family construction: phi expansions, denominators, reductions, presets."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import classical_oracle as co
from apostol.family import (
    ClassicalFamily,
    FamilySpec,
    GouldHopper,
    InvalidFamilySpecError,
    Laguerre,
    LogBase,
    PRESETS,
    Phi,
    PolyTable,
    TruncatedExp,
    Unit,
    ValuationExceedsNumeratorError,
    denominator_series,
    extract_table,
    general_members,
    gould_hopper_table,
    phi_series,
    special_case_oracle,
    unified_members,
    unified_series,
)
from apostol.polyring import MultiPoly, VarId
from apostol.series import PowerSeries

from helpers import xpoly_to_multipoly

X = MultiPoly.var(VarId.X)
Y = MultiPoly.var(VarId.Y)
ONE = MultiPoly.one()
HALF = Fraction(1, 2)

ONE_E = (LogBase.ONE, LogBase.E)
SYM = (LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B)


def spec_one_e(r, k, alphas, phi=None):
    return FamilySpec(r, k, LogBase.ONE, LogBase.E, tuple(map(Fraction, alphas)),
                      phi if phi is not None else Unit())


# -- phi ------------------------------------------------------------------------


def test_phi_unit():
    assert phi_series(Unit(), 5) == PowerSeries.one(5)


def test_phi_gould_hopper():
    s = phi_series(GouldHopper(2), 5)
    assert list(s.coeffs) == [ONE, MultiPoly.zero(), Y, MultiPoly.zero(), Y * Y * HALF]


def test_phi_laguerre_tricomi_weights():
    s = phi_series(Laguerre(1), 3)
    assert list(s.coeffs) == [ONE, Y, Y * Y * Fraction(1, 4)]


def test_phi_truncated_exp_geometric():
    s = phi_series(TruncatedExp(2), 5)
    assert list(s.coeffs) == [ONE, MultiPoly.zero(), Y, MultiPoly.zero(), Y * Y]


def test_phi_constant_term_is_one_for_every_kind():
    for phi in [Unit(), GouldHopper(1), GouldHopper(4), Laguerre(1), Laguerre(3),
                TruncatedExp(1), TruncatedExp(3)]:
        assert phi_series(phi, 6).coeffs[0] == ONE


def test_phi_parameter_validation():
    with pytest.raises(InvalidFamilySpecError):
        GouldHopper(0)
    with pytest.raises(InvalidFamilySpecError):
        Laguerre(-1)
    with pytest.raises(InvalidFamilySpecError):
        TruncatedExp(0)
    with pytest.raises(InvalidFamilySpecError):
        Phi("bessel")
    with pytest.raises(InvalidFamilySpecError):
        Phi("unit", 2)  # a step that does not apply is rejected, not dropped
    # Factory values are plain Phi values: equal and equally hashed.
    assert GouldHopper(2) == PRESETS["hermite"].phi == Phi("gould-hopper")
    assert hash(GouldHopper(2)) == hash(PRESETS["hermite"].phi)


# -- denominator -----------------------------------------------------------------


def test_denominator_euler_case():
    spec = spec_one_e(1, 0, [-1])
    den = denominator_series(spec, 3)  # -e^t - 1
    assert [c.constant_value() for c in den.coeffs] == [-2, -1, -HALF]


def test_denominator_bernoulli_case_has_valuation_one():
    spec = spec_one_e(1, 1, [1])
    den = denominator_series(spec, 4)  # e^t - 1
    assert den.valuation() == 1
    assert den.coeffs[1] == ONE


def test_denominator_symbolic_product():
    # hand-expand (2 b^t - a^t)(3 b^t - a^t) to linear order:
    # (1 + (2Lb - La) t)(2 + (3Lb - La) t) = 2 + (1*(3Lb - La) + 2*(2Lb - La)) t + ...
    la, lb = MultiPoly.var(VarId.LA), MultiPoly.var(VarId.LB)
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(3)))
    den = denominator_series(spec, 2)
    assert den.coeffs[0] == MultiPoly.const(2)
    expected_t = ONE * (3 * lb - la) + 2 * (2 * lb - la)
    assert den.coeffs[1] == expected_t == 7 * lb - 3 * la


# -- unified series and tables ------------------------------------------------------


def test_unified_euler_generating_series():
    # r=1, k=0, alpha=-1, bases (1, e): exactly 2 e^(xt) / (e^t + 1)
    spec = PRESETS["euler"]
    got = unified_series(spec, True, 6)
    num = PowerSeries.exp_linear(X, 6).scale(2)
    den = PowerSeries.exp_linear(ONE, 6) + PowerSeries.one(6)
    assert got == num.divide_with_valuation(den, 0)


def test_unified_bernoulli_generating_series():
    # r=1, k=1, alpha=1: -t e^(xt) / (e^t - 1), one order lost to the valuation
    spec = PRESETS["bernoulli"]
    got = unified_series(spec, True, 6)
    assert got.order == 5
    num = PowerSeries.t_power(1, 6) * PowerSeries.exp_linear(X, 6)
    den = PowerSeries.exp_linear(ONE, 6) - PowerSeries.one(6)
    assert got == num.divide_with_valuation(den, 1).scale(-1)


def test_unit_alpha_needs_bases_one_e():
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(1, 1, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B, (Fraction(1),))


def test_unified_series_order_precondition():
    with pytest.raises(ValueError):
        unified_series(spec_one_e(2, 1, [1, 1]), True, 2)


def test_pole_when_unit_alphas_exceed_numerator():
    with pytest.raises(ValuationExceedsNumeratorError):
        unified_members(spec_one_e(1, 0, [1]), 3)
    with pytest.raises(ValuationExceedsNumeratorError):
        unified_members(spec_one_e(2, 0, [1, 2]), 3)


def test_extract_table_euler_matches_oracle():
    table = extract_table(PRESETS["euler"], 4)
    for n, expected in enumerate(co.euler_polys(4)):
        assert table.poly(n) == xpoly_to_multipoly(expected)
    assert table.poly(2) == X * X - X


def test_extract_table_bernoulli_matches_oracle_with_sign():
    table = extract_table(PRESETS["bernoulli"], 4)
    for n, expected in enumerate(co.apostol_bernoulli(1, 1, 4)):
        assert table.poly(n) == -xpoly_to_multipoly(expected)
    assert table.poly(2) == -(X * X - X + Fraction(1, 6))


def test_extract_table_genocchi_numbers():
    table = extract_table(PRESETS["genocchi"], 6)
    numbers = co.genocchi_numbers(6)
    for n in range(7):
        at_zero = table.poly(n).substitute({VarId.X: 0})
        assert at_zero == MultiPoly.const(HALF * numbers[n])
    assert table.poly(1).substitute({VarId.X: 0}) == HALF  # G_1 = 1, halved


def test_special_case_oracle_examples():
    euler = special_case_oracle(ClassicalFamily.APOSTOL_EULER, 1, 1, 2)
    assert euler.poly(1) == X - HALF
    genocchi = special_case_oracle(ClassicalFamily.APOSTOL_GENOCCHI, 1, 1, 2)
    assert genocchi.poly(0) == MultiPoly.zero()
    bernoulli2 = special_case_oracle(ClassicalFamily.APOSTOL_BERNOULLI, 2, 1, 2)
    assert bernoulli2.poly(0) == ONE


@pytest.mark.parametrize("which,oracle_fn", [
    (ClassicalFamily.APOSTOL_BERNOULLI, co.apostol_bernoulli),
    (ClassicalFamily.APOSTOL_EULER, co.apostol_euler),
    (ClassicalFamily.APOSTOL_GENOCCHI, co.apostol_genocchi),
])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 7)])
def test_special_case_oracle_against_long_division(which, oracle_fn, r, lam):
    table = special_case_oracle(which, r, lam, 6)
    expected = oracle_fn(r, lam, 6)
    for n in range(7):
        assert table.poly(n) == xpoly_to_multipoly(expected[n])


def test_gould_hopper_values():
    table = gould_hopper_table(2, 2)
    assert table.poly(0) == ONE
    assert table.poly(2) == X * X + 2 * Y
    assert gould_hopper_table(3, 2).poly(2) == X * X


# -- reduction properties --------------------------------------------------------------


REDUCTION_LAMBDAS = [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-1, 2), Fraction(4)]


@pytest.mark.parametrize("r", [1, 2])
def test_reduction_bernoulli_type(r):
    for lam in REDUCTION_LAMBDAS:
        spec = spec_one_e(r, 1, [lam] * r)
        fam = unified_members(spec, 8)
        expected = co.apostol_bernoulli(r, lam, 8)
        sign = Fraction((-1) ** r)
        for n in range(9):
            assert fam[n] == sign * xpoly_to_multipoly(expected[n])


@pytest.mark.parametrize("r", [1, 2])
def test_reduction_euler_type(r):
    for lam in REDUCTION_LAMBDAS:
        spec = spec_one_e(r, 0, [-lam] * r)
        fam = unified_members(spec, 8)
        expected = co.apostol_euler(r, lam, 8)
        for n in range(9):
            assert fam[n] == xpoly_to_multipoly(expected[n])


@pytest.mark.parametrize("r", [1, 2])
def test_reduction_genocchi_type(r):
    for lam in REDUCTION_LAMBDAS:
        spec = spec_one_e(r, 1, [-lam] * r)
        fam = unified_members(spec, 8)
        expected = co.apostol_genocchi(r, lam, 8)
        factor = Fraction(1, 2 ** r)
        for n in range(9):
            assert fam[n] == factor * xpoly_to_multipoly(expected[n])


def _apostol_type_series(r, k, lam, phi, order):
    """The two-variable Apostol-type generating function, built directly.

    (2^(1-k) t^k / (lam e^t + 1))^r e^(xt) phi(y, t): the independent side
    of the mu = 1-k, nu = k reduction check.
    """
    scalar = Fraction(2) ** (r * (1 - k))
    num = PowerSeries.t_power(r * k, order).scale(scalar)
    den_factor = PowerSeries.exp_linear(ONE, order).scale(lam) + PowerSeries.one(order)
    den = PowerSeries.one(order)
    for _ in range(r):
        den = den * den_factor
    series = num.divide_with_valuation(den, 0)
    series = series * PowerSeries.exp_linear(X, order)
    return series * phi_series(phi, order)


@pytest.mark.parametrize("phi", [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)])
@pytest.mark.parametrize("r,k", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_reduction_two_variable_apostol_type(phi, r, k):
    lam = Fraction(3, 2)
    spec = spec_one_e(r, k, [-lam] * r, phi)
    fam = unified_members(spec, 6)
    direct = _apostol_type_series(r, k, lam, phi, 7 + r * k)
    for n in range(7):
        assert fam[n] == direct.extract(n)


@pytest.mark.parametrize("phi", [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)])
@pytest.mark.parametrize("r", [1, 2])
def test_symbolic_bases_specialize_to_one_e(phi, r):
    # La -> 0, Lb -> 1 is a ring map, so the sym/sym table must become the
    # (1, e) table, which the reduction tests check against the oracle.
    alphas, k = [Fraction(-3, 2), Fraction(5, 7)][:r], r - 1
    sym = unified_members(FamilySpec(r, k, *SYM, tuple(alphas), phi), 10)
    one_e = unified_members(spec_one_e(r, k, alphas, phi), 10)
    for n in range(11):
        assert sym[n].substitute({VarId.LA: 0, VarId.LB: 1}) == one_e[n]


@pytest.mark.parametrize("r,k", [(1, 0), (1, 2), (2, 1), (3, 1)])
def test_symbolic_quotient_times_denominator_is_numerator(r, k):
    # den * Q == (-1)^r 2^(r(1-k)) t^(rk), truncated: checked by multiplying
    # back with plain ring products, no division and no series kernel.
    spec = FamilySpec(r, k, *SYM, tuple(Fraction(a) for a in [2, -3, Fraction(1, 2)][:r]))
    order = r * k + 6
    q = unified_series(spec, False, order, include_phi=False).coeffs
    den = denominator_series(spec, order).coeffs
    scalar = MultiPoly.const(Fraction((-1) ** r) * Fraction(2) ** (r * (1 - k)))
    for n in range(order):
        product = MultiPoly.zero()
        for i in range(n + 1):
            product = product + den[i] * q[n - i]
        assert product == (scalar if n == r * k else MultiPoly.zero())


def test_vanishing_below_rk():
    rng = random.Random(11)
    for _ in range(6):
        r = rng.randint(1, 3)
        k = rng.randint(1, 2)
        alphas = []
        while len(alphas) < r:
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            if a != 1:
                alphas.append(a)
        spec = FamilySpec(r, k, *ONE_E, tuple(alphas))
        members = unified_members(spec, r * k)
        assert all(members[n] == MultiPoly.zero() for n in range(r * k))
        assert members[r * k] != MultiPoly.zero()


def test_numbers_are_x_zero_specialization():
    for spec in [PRESETS["euler"], PRESETS["bernoulli"], spec_one_e(2, 1, [3, -2])]:
        table = extract_table(spec, 6)
        numbers = unified_members(spec, 6, include_x=False, include_phi=False)
        for n in range(7):
            assert table.poly(n).substitute({VarId.X: 0}) == numbers[n]


def test_expand_constant_member():
    # n = 0 member: (-1)^r 2^(r(1-k)) / prod(alpha_i - 1)
    spec = spec_one_e(1, 0, [-1])
    assert unified_members(spec, 0)[0] == ONE


# -- spec validation and tables ----------------------------------------------------------


def test_family_spec_validation():
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(0, 0, *ONE_E, ())
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(1, -1, *ONE_E, (Fraction(2),))
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(2, 0, *ONE_E, (Fraction(2),))  # wrong alpha count
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(1, 0, LogBase.E, LogBase.E, (Fraction(2),))  # a == b


def test_presets_are_constructible():
    assert sorted(PRESETS) == [
        "bernoulli", "euler", "genocchi", "gould-hopper",
        "hermite", "laguerre", "truncated-exp",
    ]
    for spec in PRESETS.values():
        assert unified_members(spec, 2)[0] is not None


def test_poly_table_contiguity():
    with pytest.raises(ValueError):
        PolyTable(label="bad", entries=((0, ONE), (2, ONE)))


def test_general_members_start_at_one():
    for phi in [Unit(), GouldHopper(3), Laguerre(2), TruncatedExp(1)]:
        assert general_members(phi, 0)[0] == ONE
