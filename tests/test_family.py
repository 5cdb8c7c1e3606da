"""Family construction: phi expansions, denominators, reductions, presets."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce
from math import factorial

import pytest

import classical_oracle as co
from apostol.family import (
    ClassicalFamily,
    FamilySpec,
    GouldHopper,
    InvalidFamilySpecError,
    Laguerre,
    LogBase,
    PHI_KINDS,
    PRESETS,
    Phi,
    PolyTable,
    TruncatedExp,
    Unit,
    ValuationExceedsNumeratorError,
    _core_quotient,
    _small_factor,
    denominator_series,
    extract_table,
    general_members,
    general_series,
    phi_series,
    special_case_oracle,
    unified_members,
    unified_series,
)
from apostol.polyring import MultiPoly, VarId
from apostol.series import PowerSeries

from helpers import REF_LOGS, cold_factor_caches, lift
from reference_oracle import egf_product

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
    # An IntEnum member is no int step: VarId.Z used to pass as m=2.
    for step in (True, False, 2.0, "2", Fraction(2), VarId.Z):
        with pytest.raises(InvalidFamilySpecError, match="^gould-hopper m must be an int >= 1, got "):
            Phi("gould-hopper", step)
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


def _egf_series(egf, scale=1):
    """scale times the series whose t^n coefficient is the reference EGF coefficient c_n over n!."""
    return PowerSeries([p * Fraction(scale, factorial(n)) for n, p in enumerate(lift(egf))])


def _denominator_product(spec, order):
    """The reference denominator prod_i (alpha_i b^t - a^t), factor i's EGF alpha_i Lb^n - La^n."""
    log_a, log_b = REF_LOGS[spec.a], REF_LOGS[spec.b]
    return _egf_series(reduce(egf_product, ([log_b ** n * alpha - log_a ** n for n in range(order)]
                                            for alpha in spec.alphas)))


@pytest.mark.parametrize("spec", [
    FamilySpec(1, 0, *SYM, [Fraction(5, 7)]),
    FamilySpec(2, 0, *SYM, [2, -3]),
    FamilySpec(2, 0, *SYM, [2, -2]),  # no z term in (2z - 1)(-2z - 1)
    FamilySpec(3, 1, *SYM, [2, -3, HALF]),
    FamilySpec(3, 2, *ONE_E, [1, 1, HALF]),
    FamilySpec(2, 1, LogBase.ONE, LogBase.SYMBOLIC_B, [-1, Fraction(5, 7)]),
    FamilySpec(3, 0, *SYM, [2, 2, 2]),
    FamilySpec(3, 0, *ONE_E, [-1, -1, -1]),
    FamilySpec(3, 1, *ONE_E, [1, 1, 1]),
], ids=["sym-r1", "sym-r2", "sym-r2-no-middle", "sym-r3", "one-e-unit-alphas", "one-sym",
        "sym-repeated", "one-e-repeated", "one-e-all-unit"])
def test_denominator_equals_the_product_of_its_factors(spec):
    for order in (1, 4, 9):  # the lowest orders too, where the product is cut shortest
        assert denominator_series(spec, order) == _denominator_product(spec, order)


# -- unified series and tables ------------------------------------------------------


def test_unified_euler_generating_series():
    # r=1, k=0, alpha=-1, bases (1, e): exactly 2 e^(xt) / (e^t + 1), the Euler polynomials' series.
    assert unified_series(PRESETS["euler"], 6) == _egf_series(co.apostol_euler(1, 1, 5))


def test_unified_bernoulli_generating_series():
    # r=1, k=1, alpha=1: -t e^(xt) / (e^t - 1); the core absorbs the order the
    # valuation costs, so all 6 orders are the Bernoulli polynomials' series, negated.
    assert unified_series(PRESETS["bernoulli"], 6) == _egf_series(co.apostol_bernoulli(1, 1, 5), -1)


def test_unit_alpha_needs_bases_one_e():
    with pytest.raises(InvalidFamilySpecError):
        FamilySpec(1, 1, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B, (Fraction(1),))


@pytest.mark.parametrize("units", [1, 2])
def test_unified_series_has_every_order_asked_for(units):
    # Each unit alpha costs the division one order, and the core absorbs it:
    # every order 1..5 has that many coefficients, on a cold cache and once
    # the order-5 series is cached, and each is a prefix of the order-5 series.
    spec = spec_one_e(2, 1, [1] * units + [-3] * (2 - units))
    with cold_factor_caches():
        full = unified_series(spec, 5).coeffs
    assert len(full) == 5
    for order in range(1, 6):
        with cold_factor_caches():
            assert unified_series(spec, order).coeffs == full[:order]
    unified_series(spec, 5)
    for order in range(1, 6):
        assert unified_series(spec, order).coeffs == full[:order]


@pytest.mark.parametrize("alphas, extra", [([2, -3], 0), ([1, -3], 1), ([1, 1], 2)])
def test_unified_members_expands_one_order_past_each_unit_alpha(monkeypatch, alphas, extra):
    # The numerator t^(rk) costs no order; only the division by unit-alpha
    # factors does, and the core pays it by building its denominator deeper.
    core_orders, denominator_orders = [], []

    def logged_core(spec, order):
        core_orders.append(order)
        return _core_quotient(spec, order)

    def logged_denominator(spec, order):
        denominator_orders.append(order)
        return denominator_series(spec, order)

    with cold_factor_caches():  # entered first: it clears the real caches
        monkeypatch.setattr("apostol.family._core_quotient", logged_core)
        monkeypatch.setattr("apostol.family.denominator_series", logged_denominator)
        for n_max in (0, 4):
            members = unified_members(spec_one_e(2, 1, alphas), n_max)
            assert len(members) == n_max + 1
    assert core_orders == [1, 5]
    assert denominator_orders == [1 + extra, 5 + extra]


def test_genocchi_series_below_the_numerator_power_is_zero():
    # t^(rk) = t is zero at order 1, and so is P_0 of the Genocchi type.
    got = unified_series(PRESETS["genocchi"], 1)
    assert got == PowerSeries.t_power(1, 1)
    assert unified_members(PRESETS["genocchi"], 0) == [MultiPoly.zero()]


def test_pole_when_unit_alphas_exceed_numerator():
    with pytest.raises(ValuationExceedsNumeratorError):
        unified_members(spec_one_e(1, 0, [1]), 3)
    with pytest.raises(ValuationExceedsNumeratorError):
        unified_members(spec_one_e(2, 0, [1, 2]), 3)
    # The pole is named at every order, the smallest included.
    with pytest.raises(ValuationExceedsNumeratorError):
        unified_series(spec_one_e(1, 0, [1]), 1)


def test_extract_table_euler_matches_oracle():
    table = dict(extract_table(PRESETS["euler"], 4))
    for n, expected in enumerate(lift(co.apostol_euler(1, 1, 4))):
        assert table[n] == expected
    assert table[2] == X * X - X


def test_extract_table_bernoulli_matches_oracle_with_sign():
    table = dict(extract_table(PRESETS["bernoulli"], 4))
    for n, expected in enumerate(lift(co.apostol_bernoulli(1, 1, 4))):
        assert table[n] == -expected
    assert table[2] == -(X * X - X + Fraction(1, 6))


@pytest.mark.parametrize("which,oracle_fn", [
    (ClassicalFamily.APOSTOL_BERNOULLI, co.apostol_bernoulli),
    (ClassicalFamily.APOSTOL_EULER, co.apostol_euler),
    (ClassicalFamily.APOSTOL_GENOCCHI, co.apostol_genocchi),
])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 7)])
def test_special_case_oracle_against_the_classical_oracle(which, oracle_fn, r, lam):
    table = special_case_oracle(which, r, lam, 6)
    assert [poly for _, poly in table] == lift(oracle_fn(r, lam, 6))


def test_gould_hopper_values():
    members = general_members(GouldHopper(2), 2)
    assert members[0] == ONE
    assert members[2] == X * X + 2 * Y
    assert general_members(GouldHopper(3), 2)[2] == X * X


def test_special_case_oracle_rejects_inexact_parameters():
    # r must be an int and lambda an int or Fraction; bools, floats and
    # strings are refused instead of becoming r=True or a binary fraction.
    which = ClassicalFamily.APOSTOL_EULER
    for r, lam in [(True, 1), (1.0, 1), ("1", 1), (1, True), (1, 0.1), (1, "1/2"), (1, None)]:
        with pytest.raises(ValueError):
            special_case_oracle(which, r, lam, 2)
    assert special_case_oracle(which, 1, Fraction(1, 2), 2).label == "apostol-euler(r=1, lambda=1/2)"
    assert special_case_oracle(which, 2, 3, 1).label == "apostol-euler(r=2, lambda=3)"


def test_special_case_oracle_rejects_a_which_that_is_no_classical_family():
    # Unchecked, a slug, a preset name or None would build the Genocchi table
    # and then fail on its label; it is refused before any series is built.
    for which in ("apostol-bernoulli", "euler", None, PRESETS["euler"]):
        with pytest.raises(ValueError, match="^which must be a ClassicalFamily"):
            special_case_oracle(which, 1, 1, 3)


# -- reduction properties --------------------------------------------------------------


@pytest.mark.parametrize("phi", [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)])
@pytest.mark.parametrize("r,k", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_reduction_two_variable_apostol_type(phi, r, k):
    # alphas -lam: the mu = 1-k, nu = k case, (2^(1-k) t^k / (lam e^t + 1))^r e^(xt) phi(y, t),
    # from the classical oracle.
    lam = Fraction(3, 2)
    fam = unified_members(spec_one_e(r, k, [-lam] * r, phi), 6)
    assert fam == lift(co.apostol_type(r, k, lam, phi.kind, phi.step, 6))


@pytest.mark.parametrize("phi", [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)])
@pytest.mark.parametrize("r", [1, 2])
def test_symbolic_bases_specialize_to_one_e(phi, r):
    # La -> 0, Lb -> 1 is a ring map, so the sym/sym table must become the
    # (1, e) table, which the acceptance reduction suite checks against classical_oracle.
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
    q = unified_series(spec, order, exp_argument=MultiPoly.zero()).coeffs
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


def test_core_quotient_is_shared_by_every_phi_of_one_spec():
    # Euler and Hermite differ only in phi, so they must share one core.
    _core_quotient.cache_clear()
    unified_members(PRESETS["euler"], 6)
    unified_members(PRESETS["hermite"], 6)
    info = _core_quotient.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_equal_arguments_share_one_small_factor():
    # The small factor is keyed on the argument's value, however it was built.
    z = MultiPoly.var(VarId.Z)
    for args in ([X + z, z + X], [2, Fraction(4, 2), MultiPoly.const(2)]):
        with cold_factor_caches():
            factors = [general_series(GouldHopper(2), 5, exp_argument=a) for a in args]
            info = _small_factor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(args) - 1, 1)
        assert factors == [factors[0]] * len(args)


def test_a_bool_or_float_order_is_rejected_before_any_lookup():
    # The caches key the order by type, so True or 1.0 would miss the order 1
    # they hold and reach a builder; a list cannot key a cache at all.
    spec = PRESETS["hermite"]

    def held():
        return [(info.hits, info.currsize)
                for info in (_core_quotient.cache_info(), _small_factor.cache_info())]

    with cold_factor_caches():
        unified_series(spec, 1)
        before = held()
        for order in (True, 1.0, 2.0, [1]):
            error = re.escape(f"order must be an int >= 1, got {order!r}")
            with pytest.raises(ValueError, match=error):
                unified_series(spec, order)
            with pytest.raises(ValueError, match=error):
                general_series(spec.phi, order)
        assert held() == before


def test_numbers_are_x_zero_specialization():
    for spec in [PRESETS["euler"], PRESETS["bernoulli"], spec_one_e(2, 1, [3, -2])]:
        table = dict(extract_table(spec, 6))
        numbers = unified_members(spec, 6, exp_argument=MultiPoly.zero())
        for n in range(7):
            assert table[n].substitute({VarId.X: 0}) == numbers[n]


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
    # r and k must be ints (bools excluded), a and b LogBase members.
    for r, k in [(1, Fraction(1, 2)), (Fraction(1), 0), (1.0, 0), (1, 0.0), (True, 0),
                 (1, False), ("1", 0)]:
        with pytest.raises(InvalidFamilySpecError):
            FamilySpec(r, k, *ONE_E, (Fraction(-1),))
    for a, b in [("1", LogBase.E), (LogBase.ONE, "e"), (None, LogBase.E)]:
        with pytest.raises(InvalidFamilySpecError):
            FamilySpec(1, 0, a, b, (Fraction(-1),))
    # alphas must be ints (bools excluded) or Fractions: no floats, no strings.
    for alpha in (True, 0.1, "x", None):
        with pytest.raises(InvalidFamilySpecError):
            FamilySpec(1, 1, *ONE_E, (alpha,))
    # phi must be a Phi, not a kind name or a PHI_KINDS row.
    for phi in ("gould-hopper", None, PHI_KINDS["unit"]):
        with pytest.raises(InvalidFamilySpecError, match="unknown phi kind"):
            FamilySpec(1, 0, *ONE_E, (Fraction(-1),), phi)
    assert FamilySpec(1, 0, *ONE_E, (-1,)) == PRESETS["euler"]


def test_presets_are_constructible():
    assert sorted(PRESETS) == [
        "bernoulli", "euler", "genocchi", "gould-hopper",
        "hermite", "laguerre", "truncated-exp",
    ]
    for spec in PRESETS.values():
        assert unified_members(spec, 2)[0] is not None


def test_alphas_are_read_once_from_any_iterable():
    # Two valid alphas given as a generator were used up by the scalar check
    # ("need exactly r=2 alphas, got 0"), and a bare Fraction failed with a
    # TypeError from iterating it.
    assert FamilySpec(2, 0, *ONE_E, (a for a in (2, -3))) == FamilySpec(2, 0, *ONE_E, (2, -3))
    assert FamilySpec(1, 0, *ONE_E, [-1]).alphas == (Fraction(-1),)
    with pytest.raises(InvalidFamilySpecError, match=r"got Fraction\(2, 1\)"):
        FamilySpec(1, 0, *ONE_E, Fraction(2))


def test_alphas_are_exact_fractions_whatever_their_input_type():
    class Sub(Fraction):
        pass

    given = (Fraction(5, 7), 2, Sub(-2, 3))
    alphas = FamilySpec(3, 0, *SYM, given).alphas
    assert alphas == given and [type(a) for a in alphas] == [Fraction] * 3
    assert repr(alphas) == "(Fraction(5, 7), Fraction(2, 1), Fraction(-2, 3))"


# -- value semantics of Phi, FamilySpec and PolyTable -----------------------------------


def test_family_records_compare_and_hash_by_their_fields():
    spec = FamilySpec(1, 0, *ONE_E, (a for a in [-1]), Phi("gould-hopper", 2))
    assert spec == PRESETS["hermite"] and hash(spec) == hash(PRESETS["hermite"])
    assert len({spec, PRESETS["hermite"], PRESETS["euler"]}) == 2
    assert spec != PRESETS["euler"] and GouldHopper() == GouldHopper(2) != GouldHopper(3)
    table = extract_table(PRESETS["euler"], 2)
    assert table == extract_table(PRESETS["euler"], 2) != extract_table(PRESETS["euler"], 3)
    # Another record type, or a tuple of the same fields, is never equal.
    assert Unit() != ("unit", None) and Unit() != PolyTable("unit", ())
    # Equal specs built apart share one cached core quotient.
    _core_quotient.cache_clear()
    unified_members(spec, 3)
    unified_members(FamilySpec(1, 0, *ONE_E, [Fraction(-1)], Laguerre(1)), 3)
    info = _core_quotient.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_family_record_repr_is_the_dataclass_text():
    assert repr(PRESETS["hermite"]) == (
        "FamilySpec(r=1, k=0, a=<LogBase.ONE: '1'>, b=<LogBase.E: 'e'>, "
        "alphas=(Fraction(-1, 1),), phi=Phi(kind='gould-hopper', step=2))"
    )
    assert repr(Unit()) == "Phi(kind='unit', step=None)"
    assert repr(PolyTable("t", ((0, ONE),))) == (
        "PolyTable(label='t', entries=((0, MultiPoly(1)),), spec=None)")


def test_family_record_replace_validates_like_the_constructor():
    spec = PRESETS["hermite"]
    assert spec.replace(phi=Unit()) == PRESETS["euler"]
    assert spec.phi.replace(step=3) == GouldHopper(3)
    assert spec.replace(alphas=[2]).alphas == (Fraction(2),)
    with pytest.raises(InvalidFamilySpecError, match="need exactly r=2 alphas, got 1"):
        spec.replace(r=2)
    with pytest.raises(InvalidFamilySpecError, match="takes no step"):
        Unit().replace(step=2)
    with pytest.raises(ValueError, match="contiguous"):
        extract_table(spec, 2).replace(entries=((1, ONE),))
    with pytest.raises(TypeError):
        spec.replace(order=2)
    assert spec == PRESETS["hermite"]


def test_poly_table_contiguity():
    with pytest.raises(ValueError):
        PolyTable(label="bad", entries=((0, ONE), (2, ONE)))


def test_exp_argument_is_a_ring_element():
    # An exact scalar is a constant argument (1 gives e^t); anything else is
    # refused.  0.0 and "" used to build the zero-argument table silently, and
    # 1, 2.5 and "x" failed with a bare AttributeError.
    builders = {
        "unified_members": lambda arg: unified_members(PRESETS["euler"], 3, exp_argument=arg),
        "general_members": lambda arg: general_members(Unit(), 3, exp_argument=arg),
    }
    for name, build in builders.items():
        assert build(1) == build(MultiPoly.one()), name
        assert build(Fraction(-1, 2)) == build(MultiPoly.const(Fraction(-1, 2))), name
        assert build(0) == build(MultiPoly.zero()), name
        for bad in (0.0, "", 2.5, "x", True):
            with pytest.raises(TypeError):
                build(bad)


def test_public_builders_name_a_value_of_the_wrong_type():
    # Each of these used to fail with a bare AttributeError.
    for bad in (2, Fraction(1, 2), "x"):
        message = f"exp_linear needs a MultiPoly coefficient, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            PowerSeries.exp_linear(bad, 5)
    # A spec is no phi, nor a phi a spec, though the member stream reads both:
    # unified_members(GouldHopper(2), 3) used to return that phi's general polynomials.
    for builders, bads, message in [
            ((phi_series, general_series, general_members), ("unit", PRESETS["hermite"]),
             "unknown phi kind"),
            ((unified_members, unified_series, extract_table, denominator_series),
             (GouldHopper(2), None, "euler"), "not a FamilySpec")]:
        for build in builders:
            for bad in bads:
                with cold_factor_caches(), pytest.raises(
                        InvalidFamilySpecError, match=f"^{message}: {re.escape(repr(bad))}$"):
                    try:
                        build(bad, 3)
                    finally:  # refused before any factor is built
                        assert _core_quotient.cache_info().currsize == 0, build
                        assert _small_factor.cache_info().currsize == 0, build


def test_general_members_start_at_one():
    for phi in [Unit(), GouldHopper(3), Laguerre(2), TruncatedExp(1)]:
        assert general_members(phi, 0)[0] == ONE


@pytest.mark.parametrize("order", [0, -2])
def test_phi_and_denominator_series_need_order_at_least_one(order):
    # Neither function checks the order itself: the series module does.
    message = "^order must be an int >= 1, got "
    for phi in [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)]:
        with pytest.raises(ValueError, match=message):
            phi_series(phi, order)
    with pytest.raises(ValueError, match=message):
        denominator_series(spec_one_e(2, 1, [1, -3]), order)


def test_series_builders_take_only_int_orders():
    # An order of True used to build an order-1 series, and 2.0 failed with a bare TypeError.
    builders = {
        "unified_series": lambda order: unified_series(PRESETS["euler"], order),
        "general_series": lambda order: general_series(Unit(), order),
        "phi_series": lambda order: phi_series(GouldHopper(2), order),
    }
    for name, build in builders.items():
        for bad in (True, False, 2.0, "2", None, Fraction(2)):
            with pytest.raises(ValueError, match="^order must be an int >= 1, got "):
                build(bad)
        assert len(build(2).coeffs) == 2, name


def test_index_bounds_must_be_non_negative_ints():
    euler = ClassicalFamily.APOSTOL_EULER
    builders = {
        "unified_members": lambda n: unified_members(PRESETS["euler"], n),
        "extract_table": lambda n: extract_table(PRESETS["euler"], n),
        "general_members": lambda n: general_members(GouldHopper(2), n),
        "special_case_oracle": lambda n: special_case_oracle(euler, 1, 1, n),
    }
    for name, build in builders.items():
        with pytest.raises(ValueError, match="^n_max must be an int >= 0, got -1$"):
            build(-1)
        for bad in (True, False, 2.0, "2", None, Fraction(2)):
            with pytest.raises(ValueError, match="^n_max must be an int >= 0, got "):
                build(bad)
        assert len(list(build(2))) == 3, name


def test_special_case_oracle_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="^r must be an int >= 1, got 0$"):
        special_case_oracle(ClassicalFamily.APOSTOL_BERNOULLI, 0, 1, 2)
    with pytest.raises(ValueError, match="Euler denominator vanish"):
        special_case_oracle(ClassicalFamily.APOSTOL_EULER, 1, -1, 2)
    with pytest.raises(ValueError, match="Genocchi denominator vanish"):
        special_case_oracle(ClassicalFamily.APOSTOL_GENOCCHI, 1, Fraction(-1), 2)
