"""Identity verifiers: presets, hand cases, randomized specs, failure reporting."""

from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import apostol.family as family_mod
import apostol.identities as identities_mod

from apostol.family import (
    PHI_KINDS,
    FamilySpec,
    GouldHopper,
    Laguerre,
    LogBase,
    PRESETS,
    Phi,
    TruncatedExp,
    Unit,
    _core_quotient,
    _small_factor,
    denominator_series,
    general_members,
    general_series,
    phi_series,
    unified_members,
    unified_series,
)
from apostol.identities import (
    Counterexample,
    IdentityId,
    Verdict,
    _convolution_verdict,
    verify_all,
    verify_double_index,
    verify_series_def,
    verify_shift,
    verify_shift_general,
    verify_shift_mixed,
    verify_shift_one,
    verify_symmetry,
)
from apostol.polyring import MultiPoly, VarId
from apostol.series import PowerSeries

from helpers import (cold_factor_caches, drop_last_left_side_triple, drop_last_right_side_triple,
                     random_poly)

X = MultiPoly.var(VarId.X)
Y = MultiPoly.var(VarId.Y)
Z = MultiPoly.var(VarId.Z)
ZERO = MultiPoly.zero()

ONE_E = (LogBase.ONE, LogBase.E)
SYM = (LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B)
SYM_GH2 = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))


def test_series_def_on_euler_with_gould_hopper():
    spec = FamilySpec(1, 0, *ONE_E, (Fraction(-1),), GouldHopper(2))
    assert verify_series_def(spec, 6).passed


def test_shift_on_hermite_preset():
    assert verify_shift(PRESETS["hermite"], 6).passed


def test_shift_hand_case_euler_n1():
    # E_1(x + z) = x + z - 1/2 must equal z*E_0 + E_1(x)
    shifted = unified_members(PRESETS["euler"], 1, exp_argument=X + Z)
    assert shifted[1] == X + Z - Fraction(1, 2)


def test_shift_z_zero_slice_recovers_base():
    spec = PRESETS["laguerre"]
    shifted = unified_members(spec, 5, exp_argument=X + Z)
    base = unified_members(spec, 5)
    for n in range(6):
        assert shifted[n].substitute({VarId.Z: 0}) == base[n]


def test_substitution_agrees_with_re_expansion():
    """Mapping a table's variables equals re-expanding at the mapped argument.

    P_n(x+z) with z -> z - x is P_n(z), and P_n(x) with x -> 3x is P_n(3x),
    on symbolic bases with a Gould-Hopper phi.
    """
    in_x = unified_members(SYM_GH2, 8)
    shifted = unified_members(SYM_GH2, 8, exp_argument=X + Z)
    in_z = unified_members(SYM_GH2, 8, exp_argument=Z)
    tripled = unified_members(SYM_GH2, 8, exp_argument=3 * X)
    for n in range(9):
        assert shifted[n].substitute({VarId.Z: Z - X}) == in_z[n]
        assert in_x[n].substitute({VarId.X: 3 * X}) == tripled[n]


def test_shift_mixed_on_gould_hopper_3():
    spec = FamilySpec(1, 0, *ONE_E, (Fraction(-1),), GouldHopper(3))
    assert verify_shift_mixed(spec, 6).passed


def test_double_index_on_euler_preset():
    assert verify_double_index(PRESETS["euler"], 3, 3).passed


def test_double_index_reduces_to_shift_at_m_zero():
    spec = PRESETS["genocchi"]
    assert verify_double_index(spec, 1, 0).passed
    assert verify_shift(spec, 1).passed


def test_shift_one_on_genocchi_preset():
    assert verify_shift_one(PRESETS["genocchi"], 8).passed


def test_shift_general_on_laguerre_preset():
    assert verify_shift_general(PRESETS["laguerre"], 5).passed


def test_symmetry_on_hermite_preset():
    assert verify_symmetry(PRESETS["hermite"], 2, 3, 5).passed


def test_symmetry_equal_scalars_trivial():
    assert verify_symmetry(PRESETS["euler"], 2, 2, 4).passed


@pytest.mark.parametrize("c, d", [(2, 3), (Fraction(1, 2), -5)])
def test_symmetry_fails_on_random_tables(monkeypatch, c, d):
    # Unrelated random tables on the right side match no left side; a check
    # that passes them would hold for any tables at all.
    rng = random.Random(99)

    def random_members(spec, n_min, n_max, **kwargs):
        for _ in range(n_min, n_max + 1):
            yield random_poly(rng, max_degree=3, variables=(VarId.X, VarId.Y)) + 1

    monkeypatch.setattr(identities_mod, "_members", random_members)
    assert not verify_symmetry(PRESETS["hermite"], c, d, 6).passed


def test_symmetry_rejects_zero_scalars():
    with pytest.raises(ValueError):
        verify_symmetry(PRESETS["euler"], 0, 3, 2)
    # c and d must be ints or Fractions: no bools, floats or strings.
    for c, d in [(0.1, 3), (2, 0.5), ("2", 3), (2, "3"), (True, 3), (2, False), (None, 3)]:
        with pytest.raises(ValueError):
            verify_symmetry(PRESETS["euler"], c, d, 2)
    assert verify_symmetry(PRESETS["euler"], Fraction(1, 2), -3, 2).passed


def test_verify_all_runs_every_identity_once():
    verdicts = verify_all(PRESETS["euler"], 4)
    assert [v.identity for v in verdicts] == list(IdentityId)
    assert all(v.passed for v in verdicts)
    assert all(v.counterexample is None for v in verdicts)


def test_verify_all_trivial_bound():
    assert all(v.passed for v in verify_all(PRESETS["bernoulli"], 0))


@st.composite
def small_specs(draw):
    """r, k <= 2; (1, e) or sym/sym bases; every phi kind with step <= 3.

    Unit alphas are drawn only on (1, e), and at most r*k of them, the
    specs whose quotient has no pole.
    """
    r = draw(st.integers(1, 2))
    k = draw(st.integers(0, 2))
    bases = draw(st.sampled_from([ONE_E, SYM]))
    units = draw(st.integers(0, min(r, r * k))) if bases == ONE_E else 0
    others = [Fraction(a) for a in (-1, 2, -3, Fraction(1, 2), Fraction(-5, 7))]
    alphas = [Fraction(1)] * units + draw(st.lists(st.sampled_from(others),
                                                   min_size=r - units, max_size=r - units))
    kind = draw(st.sampled_from(sorted(PHI_KINDS)))
    step = None if kind == "unit" else draw(st.integers(1, 3))
    return FamilySpec(r, k, *bases, tuple(alphas), Phi(kind, step))


@settings(max_examples=25, deadline=None, database=None)
@given(small_specs())
def test_fuzzed_specs_pass_every_identity(spec):
    verdicts = verify_all(spec, 3)
    assert [v.identity for v in verdicts if not v.passed] == []
    at_zero = unified_members(spec, 3, exp_argument=ZERO)
    assert at_zero == [p.substitute({VarId.X: 0}) for p in unified_members(spec, 3)]


@settings(max_examples=25, deadline=None, database=None)
@given(small_specs(), st.sampled_from([None, X + Z, Z, X + 1, 3 * X, ZERO]), st.integers(1, 4))
def test_tables_reassociate_the_generating_product(spec, arg, order):
    # unified_series builds core * (e^(arg t) * phi) for the verifiers'
    # arguments (None is x); the left-to-right product must equal it.
    core = _core_quotient(spec.replace(phi=Unit()), order)
    exp = PowerSeries.exp_linear(X if arg is None else arg, order)
    assert unified_series(spec, order, exp_argument=arg) == (
        (core * exp) * phi_series(spec.phi, order))
    # The denominator product starts at its first factor, not at the series 1.
    for r in (1, 2, 3):
        wider = spec.replace(r=r, alphas=(spec.alphas * 3)[:r])
        bt, at = (PowerSeries.exp_linear(base.log_poly(), order) for base in (wider.b, wider.a))
        from_one = PowerSeries.one(order)
        for alpha in wider.alphas:
            from_one = from_one * (bt.scale(alpha) + at.scale(-1))
        assert denominator_series(wider, order) == from_one


@settings(max_examples=25, deadline=None, database=None)
@given(small_specs(), st.integers(1, 6), st.integers(1, 3))
def test_unified_series_has_the_order_asked_for(spec, order, extra):
    # Unit alphas included: the core absorbs the order its division loses,
    # so the series has every order asked for, and a deeper one extends it.
    series = unified_series(spec, order).coeffs
    assert len(series) == order
    assert unified_series(spec, order + extra).coeffs[:order] == series


ARGUMENTS = [None, X + Z, ZERO, X + 1, 2 * X, Z]


def _members_by_extract(spec: FamilySpec, n_max: int, arg) -> list[MultiPoly]:
    """The reference route: the generating series built whole, each member extracted."""
    series = unified_series(spec, n_max + 1, exp_argument=arg)
    return [series.extract(j) for j in range(n_max + 1)]


@settings(max_examples=30, deadline=None, database=None)
@given(small_specs(), st.sampled_from(ARGUMENTS), st.integers(0, 6))
def test_members_read_off_the_cauchy_sum_equal_the_extracted_members(spec, arg, n_max):
    # unified_members cancels n! inside the product kernel; extract applies it
    # to the series coefficient.  Fractional alphas give denominators n! cancels.
    assert unified_members(spec, n_max, exp_argument=arg) == _members_by_extract(spec, n_max, arg)


def test_members_at_expand_deep_size_equal_the_extracted_members():
    # n = 48 with alpha -5/7: the factorial cancels most of each denominator.
    spec = FamilySpec(2, 0, *ONE_E, (Fraction(-5, 7),) * 2, Laguerre(1))
    assert unified_members(spec, 48) == _members_by_extract(spec, 48, None)


@settings(max_examples=15, deadline=None, database=None)
@given(small_specs(), st.integers(0, 6))
def test_symmetry_left_side_equals_its_extracted_series_product(spec, n_max):
    order = n_max + 1
    core = unified_series(spec.replace(phi=Unit()), order, exp_argument=ZERO)
    for c, d in [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(-5))]:
        cores = identities_mod._rescaled(core, c) * identities_mod._rescaled(core, d)
        smalls = (identities_mod._rescaled(general_series(spec.phi, order, exp_argument=X * d), c)
                  * identities_mod._rescaled(general_series(spec.phi, order, exp_argument=ZERO), d))
        series = cores * smalls
        assert list(identities_mod._symmetry_left_side(spec, c, d, n_max)) == [
            series.extract(j) for j in range(order)], (c, d)


def test_unit_alpha_specs_pass():
    for spec in [
        FamilySpec(1, 1, *ONE_E, (Fraction(1),)),
        FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(3))),
        FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(1)), GouldHopper(2)),
    ]:
        assert all(v.passed for v in verify_all(spec, 4))


def test_verdict_reports_first_lex_mismatch():
    # With a = (1, 0, 0) the right side at n is b[n].
    spec = PRESETS["euler"]
    a = [MultiPoly.one(), ZERO, ZERO]
    v = _convolution_verdict(IdentityId.SHIFT, spec, 2, [X, X, X], a, [X, Z, Z])
    assert not v.passed
    assert v.counterexample == Counterexample((1,), X, Z)

    ok = _convolution_verdict(IdentityId.SHIFT, spec, 1, [X, X], a[:2], [X, X])
    assert ok.passed and ok.counterexample is None
    assert isinstance(ok, Verdict)


# -- value semantics of Verdict and Counterexample -------------------------------------

FAILING = Verdict(IdentityId.SHIFT, PRESETS["euler"], 2, False, Counterexample((1,), X, X + 1))


def test_verdicts_compare_by_their_fields():
    # With a = (1, 0, 0) the right side at n is b[n], so the first mismatch is at n = 1.
    assert _convolution_verdict(IdentityId.SHIFT, PRESETS["euler"], 2, [X, X, X],
                                [MultiPoly.one(), ZERO, ZERO], [X, X + 1, X]) == FAILING
    assert FAILING != FAILING.replace(max_n=3) and FAILING != FAILING.counterexample
    assert Counterexample((1,), X, X + 1) != ((1,), X, X + 1)
    passing = verify_shift(PRESETS["hermite"], 2)
    assert passing == Verdict(IdentityId.SHIFT, PRESETS["hermite"], 2, True)
    assert hash(passing) == hash(verify_shift(PRESETS["hermite"], 2))
    # A counterexample's polynomials hash by value, so equal FAIL verdicts hash equal.
    assert hash(FAILING) == hash(Verdict(IdentityId.SHIFT, PRESETS["euler"], 2, False,
                                         Counterexample((1,), X, 1 + X)))


def test_failing_verdict_repr_is_the_dataclass_text():
    assert repr(FAILING) == (
        "Verdict(identity=<IdentityId.SHIFT: 'shift'>, spec=FamilySpec(r=1, k=0, "
        "a=<LogBase.ONE: '1'>, b=<LogBase.E: 'e'>, alphas=(Fraction(-1, 1),), "
        "phi=Phi(kind='unit', step=None)), max_n=2, passed=False, "
        "counterexample=Counterexample(indices=(1,), lhs=MultiPoly(x), rhs=MultiPoly(x + 1)))"
    )


@pytest.mark.parametrize("j", [0, 3, 5])
def test_double_index_reports_the_first_mismatch_of_the_literal_double_sum(monkeypatch, j):
    # Perturb one member of the x-table only; the per-N verifier must fail
    # at the same (n, m), with the same sides, as the double sum as stated.
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    n_max, m_max = 3, 4
    monkeypatch.setattr(identities_mod, "_members", _faulty_stream(
        identities_mod._members, GH, {}, j, [], plus=X))
    verdict = verify_double_index(spec, n_max, m_max)

    in_z = unified_members(spec, n_max + m_max, exp_argument=Z)
    in_x = unified_members(spec, n_max + m_max)
    in_x[j] = in_x[j] + X

    def first_literal_mismatch():
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                rhs = MultiPoly.zero()
                for p in range(n + 1):
                    for q in range(m + 1):
                        rhs = rhs + (comb(n, p) * comb(m, q) * (Z - X) ** (p + q)
                                     * in_x[n + m - p - q])
                if rhs != in_z[n + m]:
                    return Counterexample((n, m), in_z[n + m], rhs)
        return None

    expected = first_literal_mismatch()
    assert expected is not None
    assert not verdict.passed
    assert verdict.counterexample == expected


def test_double_index_compares_once_per_n_at_its_first_pair(monkeypatch):
    # The weights of (n, m) are C(n+m, s), so the 20 pairs make one check per N = 0 .. 7.
    checked = []
    convolution = identities_mod.binomial_convolution

    def logged(a, b, n):
        checked.append(n)
        return convolution(a, b, n)

    monkeypatch.setattr(identities_mod, "binomial_convolution", logged)
    assert verify_double_index(SYM_GH2, 4, 3).passed
    assert checked == list(range(8))


def test_double_index_catches_a_wrong_binomial_at_the_first_pair_of_its_n(monkeypatch):
    # A wrong comb(4, 2) gives the N = 4 check the weights (1, 4, 7, 4, 1), so
    # double-index must FAIL at (1, 3), the first pair with n + m = 4, with the
    # right side sum_s w_s (z - x)^s P_(4-s)(x, y) in (x, z) by plain ring operations.
    def wrong_comb(n, k):
        return 7 if (n, k) == (4, 2) else comb(n, k)

    monkeypatch.setattr(identities_mod, "comb", wrong_comb)
    verdict = verify_double_index(SYM_GH2, 4, 3)
    monkeypatch.undo()

    in_z = unified_members(SYM_GH2, 7, exp_argument=Z)
    in_x = unified_members(SYM_GH2, 7)
    rhs = MultiPoly.zero()
    for s, w in enumerate((1, 4, 7, 4, 1)):
        rhs = rhs + w * (Z - X) ** s * in_x[4 - s]
    assert not verdict.passed
    assert verdict.counterexample == Counterexample((1, 3), in_z[4], rhs)


def test_the_product_of_binomial_rows_n_and_m_is_row_n_plus_m():
    # Vandermonde: sum_p C(n,p) C(m,s-p) = C(n+m, s), which lets double-index
    # check each pair (n, m) as the binomial convolution at N = n + m.
    for n in range(13):
        for m in range(13):
            product = [0] * (n + m + 1)
            for p in range(n + 1):
                for q in range(m + 1):
                    product[p + q] += comb(n, p) * comb(m, q)
            assert product == [comb(n + m, s) for s in range(n + m + 1)], (n, m)


# (verifier slug, perturbed table or series, name the verifier calls it by,
# _kind of the spec or phi passed, kwargs of that call).  Each table, on
# either side, is the member stream _members.  The numbers M and P(0) both
# pass a zero exp_argument and differ only in the phi of the spec.
GH, UNIT = "gould-hopper", "unit"
# A phi's own table, its general polynomials: Gould-Hopper's p(x) has the
# phi kind and the argument of a Gould-Hopper spec's P(x), not its type.
P_GH = "general " + GH
FAULTS = [
    ("series-def", "lhs P(x)", "_members", GH, {}),
    ("series-def", "numbers M", "_members", UNIT, {"exp_argument": ZERO}),
    ("series-def", "general p(x)", "_members", P_GH, {}),
    ("shift", "lhs P(x+z)", "_members", GH, {"exp_argument": X + Z}),
    ("shift", "P(x)", "_members", GH, {}),
    ("shift-mixed", "lhs P(x+z)", "_members", GH, {"exp_argument": X + Z}),
    ("shift-mixed", "general p(z)", "_members", P_GH, {"exp_argument": Z}),
    ("shift-mixed", "phi-free M(x)", "_members", UNIT, {}),
    ("shift-one", "lhs P(x+1)", "_members", GH, {"exp_argument": X + 1}),
    ("shift-one", "P(x)", "_members", GH, {}),
    ("shift-general", "lhs P(x+z)", "_members", GH, {"exp_argument": X + Z}),
    ("shift-general", "phi-free M(z)", "_members", UNIT, {"exp_argument": Z}),
    ("shift-general", "general p(x)", "_members", P_GH, {}),
    ("symmetry", "lhs G(dx)", "general_series", P_GH, {"exp_argument": 3 * X}),
    ("symmetry", "rhs P(cx)", "_members", GH, {"exp_argument": 2 * X}),
    ("symmetry", "rhs P(0)", "_members", GH, {"exp_argument": ZERO}),
]

VERIFIERS = {
    "series-def": verify_series_def,
    "shift": verify_shift,
    "shift-mixed": verify_shift_mixed,
    "shift-one": verify_shift_one,
    "shift-general": verify_shift_general,
    "symmetry": lambda spec, n: verify_symmetry(spec, 2, 3, n),
}


def _kind(of):
    """The phi kind of a spec's family table, or "general <kind>" for a phi's own table."""
    return of.phi.kind if isinstance(of, FamilySpec) else f"general {of.kind}"


def _faulty_stream(stream, kind=None, match={}, j0=None, hits=None, *, log=None, plus=Y):
    """stream (a _members) with plus added to member j0 of each matching stream, logged in hits.

    A stream matches when the _kind of what it reads is kind and its
    exp_argument is the one in match, a verifier's keyword arguments.  log,
    when given, gets (_kind, exp_argument, n) of every member the stream builds.
    """
    arg = match.get("exp_argument")

    def faulty(of, n_min, n_max, exp_argument=None):
        for n, member in enumerate(stream(of, n_min, n_max, exp_argument), n_min):
            if log is not None:
                log.append((_kind(of), exp_argument, n))
            if n == j0 and _kind(of) == kind and exp_argument == arg:
                hits.append(("stream", n_max))
                member = member + plus
            yield member

    return faulty


def _faulty_table(build, kind, match, j0, hits):
    """build (called as build(of, n, **kwargs)) with y added to entry j0 of each matching output.

    The twin of _faulty_stream for list builders: an output matches when the
    _kind of its spec or phi is kind, its keyword arguments are match and it
    holds entry j0; each perturbed output is logged in hits as ("table", n).
    """
    def faulty(of, n, **kwargs):
        out = build(of, n, **kwargs)
        if (_kind(of) == kind and kwargs == match
                and j0 < len(getattr(out, "coeffs", out))):
            hits.append(("table", n))
            out = _plus_y_at(out, j0)
        return out

    return faulty


def _plus_y_at(out, j0):
    """out with y added to entry j0: a table's member, or a series' coefficient of t^j0."""
    if isinstance(out, PowerSeries):
        return PowerSeries(_plus_y_at(list(out.coeffs), j0))
    out[j0] = out[j0] + Y
    return out


@pytest.mark.parametrize("j0", [0, 1, 4])
@pytest.mark.parametrize("slug, table, name, kind, match", FAULTS,
                         ids=[f"{slug}:{table}".replace(" ", "-") for slug, table, *_ in FAULTS])
def test_convolution_verifiers_fail_at_the_perturbed_index(monkeypatch, slug, table, name,
                                                         kind, match, j0):
    """Adding y to entry j0 of one table (or series) a verifier reads makes it FAIL at n = j0.

    Every table is perturbed through the name the verifier calls, and each
    table, on either side, is read from the member stream _members.  Entry 0
    of each other table is a nonzero constant (1, or P_0 = -1 for this
    spec), so the fault cannot cancel at n = j0 and cannot show earlier.

        verifier       left side          right-side tables
        series-def     P(x)               M, p(x)
        shift          P(x+z)             P(x)          (z^k: plain powers)
        shift-mixed    P(x+z)             p(z), M(x)
        shift-one      P(x+1)             P(x)          (ones: a literal)
        shift-general  P(x+z)             M(z), p(x)
        symmetry       series product     P(cx), P(0)   (M(ct) M(dt) G(ct; dx) G(dt; 0))
        double-index   P(x+z)             P(x)          (see the two double-index tests)

    Symmetry's left side is a series product, not a table: its fault adds
    y t^j0 to the general series G(t; dx), which reaches the product as
    c^j0 y t^j0 times the constant M_0^2 G_0(0) = 1.

    Under verify_all P(x) and P(x+z) are built once and shared, and every
    other table is streamed by each reader, so a fault in a table fails
    every verifier that reads it (SHARED_FAULTS below):

        table          read by
        P(x)           series-def (lhs), shift, double-index, shift-one
        P(x+z)         shift, shift-mixed, double-index, shift-general (lhs each)
        p(x)           series-def, shift-general
        P(0)           symmetry; series-def too when phi is unit (as M)
    """
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    hits = []
    perturb = _faulty_stream if name == "_members" else _faulty_table
    monkeypatch.setattr(identities_mod, name,
                        perturb(getattr(identities_mod, name), kind, match, j0, hits))
    verdict = VERIFIERS[slug](spec, 5)
    assert len(hits) == 1
    assert not verdict.passed
    assert verdict.counterexample.indices == (j0,)


def _perturb_x_plus_z_member(monkeypatch, j0):
    """Add y to P_j0(x+z) wherever identities builds it; the log of where it did.

    The member is built in the shared unified_members table when verify_all
    holds j0 there, and in the member stream of a left side otherwise.
    """
    hits, match = [], {"exp_argument": X + Z}
    monkeypatch.setattr(identities_mod, "unified_members", _faulty_table(
        identities_mod.unified_members, GH, match, j0, hits))
    monkeypatch.setattr(identities_mod, "_members", _faulty_stream(
        identities_mod._members, GH, match, j0, hits))
    return hits


@pytest.mark.parametrize("n_max, m_max, j0, expected", [
    (3, 4, 0, (0, 0)), (3, 4, 1, (0, 1)), (3, 4, 4, (0, 4)), (3, 4, 6, (2, 4)),
    (5, 0, 0, (0, 0)), (5, 0, 3, (3, 0)), (5, 0, 5, (5, 0)),
    (0, 5, 0, (0, 0)), (0, 5, 3, (0, 3)), (0, 5, 5, (0, 5)),
], ids=["0-expected0", "1-expected1", "4-expected2", "6-expected3",  # the (3, 4) ids as before
        "5x0-0", "5x0-3", "5x0-5", "0x5-0", "0x5-3", "0x5-5"])
def test_double_index_fails_at_a_perturbed_left_side(monkeypatch, n_max, m_max, j0, expected):
    # Adding y to P_j0(x+z) breaks every pair with n + m = j0 and no other;
    # the first in lexicographic order is (0, j0) when j0 <= m_max, and
    # (j0 - m_max, m_max) beyond it.  m_max = 0 and n_max = 0 are the two
    # edges of that map.  Run alone, every member comes from the stream.
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    hits = _perturb_x_plus_z_member(monkeypatch, j0)
    verdict = verify_double_index(spec, n_max, m_max)
    assert len(hits) == 1
    assert not verdict.passed
    assert verdict.counterexample.indices == expected
    # Reported in (x, z): the left side is P_j0(z, y) + y.
    assert verdict.counterexample.lhs == unified_members(spec, j0, exp_argument=Z)[j0] + Y


def test_right_sides_fail_when_a_right_side_kernel_drops_a_pair(monkeypatch):
    """A right-side kernel that drops its last triple breaks every right side.

    Each binomial convolution (one linear_combination of (c, a, b) triples)
    loses its j = n triple (1, a[0], b[n]), so at n = 0 the right side is 0
    against the nonzero P_0 (P_0^2 for symmetry, whose left side is a series
    product and takes no right-side kernel).  The double-index right side is
    the binomial convolution of h^s and P(x) at N = n + m, which loses
    (1, h^0, P_N), so it first fails at (0, 0).
    """
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    calls = []
    drop_last_right_side_triple(monkeypatch, calls)
    verifiers = {**VERIFIERS, "double-index": lambda spec, n: verify_double_index(spec, n, 2)}
    for slug, verifier in verifiers.items():
        calls.clear()
        verdict = verifier(spec, 4)
        assert calls, slug
        assert not verdict.passed, slug
        expected = {"double-index": (0, 0)}.get(slug, (0,))
        assert verdict.counterexample.indices == expected, slug


@pytest.mark.parametrize("spec", [
    FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2)),
    FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(-3))),
    PRESETS["truncated-exp"],
], ids=["sym-sym-gh2", "one-e-unit-alpha", "truncated-exp"])
def test_double_index_holds_as_the_literal_double_sum(spec):
    # The identity as stated in (x, z), by plain ring operations: an oracle
    # that shares neither the shifted coordinates nor linear_combination
    # with verify_double_index.
    in_z = unified_members(spec, 8, exp_argument=Z)
    in_x = unified_members(spec, 8)
    for n in range(5):
        for m in range(5):
            rhs = MultiPoly.zero()
            for p in range(n + 1):
                for q in range(m + 1):
                    rhs = rhs + (comb(n, p) * comb(m, q) * (Z - X) ** (p + q)
                                 * in_x[n + m - p - q])
            assert in_z[n + m] == rhs, (n, m)
    assert verify_double_index(spec, 4, 4).passed


@pytest.mark.parametrize("spec", [
    *PRESETS.values(),
    SYM_GH2,
    FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(5, 7)), TruncatedExp(2)),
    FamilySpec(3, 2, *ONE_E, (Fraction(1), Fraction(2), Fraction(-3)), Laguerre(1)),
    FamilySpec(1, 0, LogBase.SYMBOLIC_B, LogBase.SYMBOLIC_A, (Fraction(3),), GouldHopper(3)),
], ids=[*PRESETS, "sym-sym-gh2", "one-e-unit-alpha-te2", "one-e-r3-laguerre", "sym-b-sym-a-gh3"])
def test_symmetry_left_side_is_the_literal_double_sum(spec):
    # sum_m C(n,m) c^(n-m) d^m P_(n-m)(dx,y) P_m(0,y) from tables, by plain ring
    # operations: an oracle that shares neither the product of rescaled series
    # nor linear_combination with the left side of verify_symmetry.
    at_zero = unified_members(spec, 8, exp_argument=ZERO)
    for c, d in [(2, 3), (Fraction(1, 2), -5), (-3, Fraction(5, 7)), (2, 2)]:
        at_d = unified_members(spec, 8, exp_argument=X * d)
        lhs = list(identities_mod._symmetry_left_side(spec, Fraction(c), Fraction(d), 8))
        for n in range(9):
            total = MultiPoly.zero()
            for m in range(n + 1):
                total = total + at_d[n - m] * at_zero[m] * (comb(n, m) * c ** (n - m) * d ** m)
            assert lhs[n] == total, (c, d, n)
        assert verify_symmetry(spec, c, d, 8).passed


def test_index_bounds_of_the_verifiers_must_be_non_negative_ints():
    euler = PRESETS["euler"]
    with pytest.raises(ValueError, match="^m_max must be an int >= 0, got -1$"):
        verify_double_index(euler, 2, -1)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="^n_max must be an int >= 0, got "):
            verify_double_index(euler, bad, 1)
        with pytest.raises(ValueError, match="^m_max must be an int >= 0, got "):
            verify_double_index(euler, 1, bad)
        for slug, verifier in VERIFIERS.items():
            with pytest.raises(ValueError, match="^n_max must be an int >= 0, got "):
                verifier(euler, bad)


def test_the_registry_names_each_verifier_once_with_its_arguments():
    # IdentityId is the one list of identities: every exported verifier is
    # named by exactly one member, and each member lists its verifier's
    # positional arguments after spec, n_max and the keys of AUXILIARY.
    exported = [name for name in identities_mod.__all__
                if name.startswith("verify_") and name != "verify_all"]
    assert sorted(member.verifier for member in IdentityId) == sorted(exported)
    for member in IdentityId:
        params = inspect.signature(getattr(identities_mod, member.verifier)).parameters
        positional = [p.name for p in params.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert positional == ["spec", *member.args], member
        assert set(member.args) <= {"n_max", *identities_mod.AUXILIARY}, member
    assert [m.value for m in IdentityId] == [
        "series-def", "shift", "shift-mixed", "double-index", "shift-one", "shift-general",
        "symmetry"]


def test_verify_identity_takes_only_identity_ids():
    for bad in ("shift", None, 3):
        with pytest.raises(ValueError, match=f"^identity must be an IdentityId, got {bad!r}$"):
            identities_mod.verify_identity(bad, PRESETS["euler"], 3)


def test_left_sides_fail_when_the_left_side_kernel_drops_a_triple(monkeypatch):
    """A fused series kernel that drops the last of 3 or more triples breaks every left side.

    A Cauchy product first sums three triples at t^2 (an inversion at t^3),
    so the t^0 and t^1 coefficients stay intact.  A table is core * E with
    E = e^(arg t) * phi built first, and the triple dropped at t^2 is
    core_2 * E_0 (E itself drops arg^2 / 2), so every convolution verifier
    first fails at n = 2 and double-index at (0, 2).  Symmetry does too: its
    right side reads two such tables, while its left side drops the last
    t^2 triple of each of its own series products, and the two sides differ
    there.  The run has cold factor caches, so every factor is built with
    the faulty kernel and no faulty factor leaks into other tests.
    """
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    drop_last_left_side_triple(monkeypatch)
    verifiers = {**VERIFIERS, "double-index": lambda spec, n: verify_double_index(spec, n, 2)}
    with cold_factor_caches():
        for slug, verifier in verifiers.items():
            verdict = verifier(spec, 4)
            assert not verdict.passed, slug
            expected = {"double-index": (0, 2)}.get(slug, (2,))
            assert verdict.counterexample.indices == expected, slug


# -- tables shared inside verify_all -------------------------------------------------


@settings(max_examples=20, deadline=None, database=None)
@given(small_specs(), st.integers(0, 3), st.integers(1, 3))
def test_a_smaller_table_is_a_prefix_of_a_larger_one(spec, n, extra):
    # verify_all builds each shared table once at the largest n and hands out
    # prefixes, which is exact only if truncating later changes no entry.
    for kwargs in ({}, {"exp_argument": X + Z}, {"exp_argument": ZERO}):
        larger = unified_members(spec, n + extra, **kwargs)
        assert larger[:n + 1] == unified_members(spec, n, **kwargs)
    assert general_members(spec.phi, n + extra)[:n + 1] == general_members(spec.phi, n)


def test_verify_all_builds_each_factor_once_per_order():
    # verify_all(SYM_GH2, 6) reads the shared table P(x) and double-index's
    # stream of P_N(x+z), N = 7 .. 12, at order n_max + m_max + 1 = 13, and
    # every table, the shared P(x+z) included, at order 7.
    with cold_factor_caches():
        verify_all(SYM_GH2, 6)
        core, small = _core_quotient.cache_info(), _small_factor.cache_info()
    # The core at orders 13 and 7.
    assert (core.misses, core.currsize) == (2, 2)
    # At order 13: e^(arg t) phi at x and x+z, e^(arg t) alone at 2La, La+Lb
    # and 2Lb (the denominator's three exponentials, r = 2).  At order 7:
    # e^(arg t) phi at x, x+z, z, x+1, 0, 2x (P(cx)) and 3x (symmetry's
    # G(dx)); e^(arg t) alone at x and z (phi-free tables) and at 2La, La+Lb
    # and 2Lb.
    assert (small.misses, small.currsize) == (17, 17)


def _recording_builders(monkeypatch):
    """Route identities' table builders through a log of (builder, spec or phi, argument, n).

    A member stream from 0, on either side, lists the table
    unified_members(spec, n), or general_members(phi, n) for a phi, and is
    logged as it; a stream past a shared prefix is the rest of that shared
    table and is not.
    """
    requests = []
    build = identities_mod.unified_members

    def logged(of, n, **kwargs):
        requests.append(("unified_members", of, kwargs.get("exp_argument"), n))
        return build(of, n, **kwargs)

    monkeypatch.setattr(identities_mod, "unified_members", logged)
    stream = identities_mod._members

    def logged_stream(of, n_min, n, **kwargs):
        if n_min == 0:
            name = "unified_members" if isinstance(of, FamilySpec) else "general_members"
            requests.append((name, of, kwargs.get("exp_argument"), n))
        return stream(of, n_min, n, **kwargs)

    monkeypatch.setattr(identities_mod, "_members", logged_stream)
    return requests


def _table_counts(requests):
    """How often a request log asks for each (builder, spec or phi, argument) table."""
    return Counter((name, of, arg) for name, of, arg, _ in requests)


@pytest.mark.parametrize("spec", [*PRESETS.values(), SYM_GH2], ids=[*PRESETS, "sym-sym-gh2"])
def test_verify_all_requests_each_table_once(monkeypatch, spec):
    # verify_all shares P(x) and P(x+z), so each is requested once; every other
    # table is requested as often as the seven verifiers request it run alone.
    requests = _recording_builders(monkeypatch)
    shared = {("unified_members", spec, None), ("unified_members", spec, X + Z)}
    # m_max below n_max, zero (every shared table is n_max wide) and above
    # n_max (P(x) more than twice n_max wide).
    for n_max, m_max in [(3, 2), (3, 0), (2, 4)]:
        requests.clear()
        for identity in IdentityId:
            identities_mod.verify_identity(identity, spec, n_max, m_max=m_max)
        alone = _table_counts(requests)
        assert shared <= alone.keys()

        requests.clear()
        verify_all(spec, n_max, m_max=m_max)
        assert _table_counts(requests) == Counter(
            {table: 1 if table in shared else count for table, count in alone.items()})
        for name, of, arg, n in requests:
            # only P(x) is built beyond n_max, for double-index's right side;
            # its left side streams P(x+z) past n_max
            wide = name == "unified_members" and of == spec and arg is None
            assert n == (n_max + m_max if wide else n_max), (n_max, m_max, name, of, arg)


# The tables each verifier reads as member streams, (_kind, exp_argument) in
# the order it reads them at each n, left side first, for SYM_GH2 at c = 2.
STREAMS = {
    "series-def": [(GH, None), (UNIT, ZERO), (P_GH, None)],
    "shift": [(GH, X + Z), (GH, None)],
    "shift-mixed": [(GH, X + Z), (P_GH, Z), (UNIT, None)],
    "double-index": [(GH, X + Z), (GH, None)],
    "shift-one": [(GH, X + 1), (GH, None)],
    "shift-general": [(GH, X + Z), (UNIT, Z), (P_GH, None)],
    "symmetry": [(GH, 2 * X), (GH, ZERO)],
}


@pytest.mark.parametrize("run", ["verify_all", *STREAMS])
def test_each_stream_builds_each_member_once_just_before_its_check(monkeypatch, run):
    # Every table on either side is a member stream: member n is built
    # once, after the check at n - 1 and before the check at n, and never in a
    # table.  Under verify_all the shared P(x) (to n_max + m_max) and P(x+z)
    # (to n_max) are the only tables, and double-index streams P_N(x+z) past n_max.
    n_max, m_max = 3, 4
    build, convolution = identities_mod.unified_members, identities_mod.binomial_convolution
    events, tables = [], []

    def logged_table(of, n, **kwargs):
        tables.append((of, kwargs.get("exp_argument"), n))
        return build(of, n, **kwargs)

    def logged_convolution(a, b, n):
        events.append(("check", n))
        return convolution(a, b, n)

    monkeypatch.setattr(identities_mod, "unified_members", logged_table)
    monkeypatch.setattr(identities_mod, "_members",
                        _faulty_stream(identities_mod._members, log=events))
    monkeypatch.setattr(identities_mod, "binomial_convolution", logged_convolution)
    if run == "verify_all":
        assert all(v.passed for v in verify_all(SYM_GH2, n_max, m_max=m_max))
        runs = [identity.value for identity in IdentityId]
        shared = {(GH, None): n_max + m_max, (GH, X + Z): n_max}
        assert tables == [(SYM_GH2, None, n_max + m_max), (SYM_GH2, X + Z, n_max)]
    else:
        assert identities_mod.verify_identity(IdentityId(run), SYM_GH2, n_max,
                                              m_max=m_max).passed
        runs, shared = [run], {}
        assert tables == []
    expected = [(kind, arg, n) for slug in runs
                for n in range(n_max + (m_max if slug == "double-index" else 0) + 1)
                for kind, arg in STREAMS[slug] if n > shared.get((kind, arg), -1)]
    builds = [i for i, event in enumerate(events) if event[0] != "check"]
    assert [events[i] for i in builds] == expected
    for i in builds:
        n = events[i][2]
        assert next(e for e in events[i + 1:] if e[0] == "check") == ("check", n)
        if n:
            assert next(e for e in reversed(events[:i]) if e[0] == "check") == ("check", n - 1)


# (run, perturbed table (_kind, keyword arguments), j0, the members built in all).
STOPS = [
    ("double-index", GH, {}, 1, 4),  # right side P(x): P_0, P_1 on each side
    ("double-index", GH, {"exp_argument": X + Z}, 1, 4),  # left side P(x+z)
    ("series-def", UNIT, {"exp_argument": ZERO}, 2, 9),  # P_0..P_2, M_0..M_2 and p_0..p_2
    ("symmetry", GH, {"exp_argument": ZERO}, 2, 6),  # the left side is a series product
    # p_0 of a general table: each of the three sides builds its member 0 and no more
    ("series-def", P_GH, {}, 0, 3),
    ("shift-mixed", P_GH, {"exp_argument": Z}, 0, 3),
    ("shift-general", P_GH, {}, 0, 3),
]


@pytest.mark.parametrize("run, kind, match, j0, built", STOPS,
                         ids=["double-index:rhs", "double-index:lhs", "series-def:rhs",
                              "symmetry:rhs", "series-def:p", "shift-mixed:p", "shift-general:p"])
def test_a_fail_at_j_builds_no_member_past_j(monkeypatch, run, kind, match, j0, built):
    # y added to member j0 of one table: both the stream identities reads and
    # the list unified_members makes pass through the log, so a table built
    # whole before the first check shows as members past j0.
    log = _logged_members(monkeypatch, kind, match, j0)
    verdict = identities_mod.verify_identity(IdentityId(run), SYM_GH2, 14, m_max=14)
    assert not verdict.passed
    assert max(n for *_, n in log) == j0
    assert len(log) == built


def test_a_fail_under_verify_all_builds_no_member_past_it_in_its_stream(monkeypatch):
    # M_1(z) is read by shift-general alone: its stream stops at the FAIL, while
    # the shared P(x) and P(x+z) are built whole before any check.
    log = _logged_members(monkeypatch, UNIT, {"exp_argument": Z}, 1)
    failed = [v for v in verify_all(SYM_GH2, 5, m_max=2) if not v.passed]
    assert [(v.identity, v.counterexample.indices) for v in failed] == [
        (IdentityId.SHIFT_GENERAL, (1,))]
    assert [n for kind, arg, n in log if (kind, arg) == (UNIT, Z)] == [0, 1]


def _logged_members(monkeypatch, kind, match, j0):
    """Log (_kind, exp_argument, n) of every member family builds; y added to one, j0.

    identities' member stream and family's, which unified_members lists, are
    both replaced.
    """
    log = []
    logged = _faulty_stream(family_mod._members, kind, match, j0, [], log=log)
    monkeypatch.setattr(family_mod, "_members", logged)
    monkeypatch.setattr(identities_mod, "_members", logged)
    return log


@pytest.mark.parametrize("slug", ["series-def", "shift", "shift-mixed", "shift-one",
                                  "shift-general"])
def test_a_verifier_run_alone_holds_less_than_its_left_side_table(slug):
    # Its left side is a stream, so a verifier run alone peaks below building
    # that left side as one unified_members table: 0.65-0.92 of it at n = 12,
    # against 1.19-1.52 when the verifier held the table.  Both run with cold
    # factor caches, so each peak includes building the factors.
    def peak(run):
        with cold_factor_caches():
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    verifier = getattr(identities_mod, IdentityId(slug).verifier)
    table = peak(lambda: unified_members(SYM_GH2, 12, exp_argument=STREAMS[slug][0][1]))
    alone = peak(lambda: verifier(SYM_GH2, 12))
    assert alone < table, f"peak {alone} B run alone, {table} B for the table"


def test_a_fault_past_the_prefix_fails_only_double_index(monkeypatch):
    # y added to P_6(x+z) at (n_max, m_max) = (3, 4): only double-index reads
    # it, from its stream, so only double-index FAILs, at (2, 4), the first
    # pair with n + m = 6, with the verdict it gives run alone.
    hits = _perturb_x_plus_z_member(monkeypatch, 6)
    failed = [v for v in verify_all(SYM_GH2, 3, m_max=4) if not v.passed]
    assert hits == [("stream", 7)]
    assert [v.identity for v in failed] == [IdentityId.DOUBLE_INDEX]
    assert failed[0].counterexample.indices == (2, 4)
    hits.clear()
    assert verify_double_index(SYM_GH2, 3, 4) == failed[0]
    assert hits == [("stream", 7)]


# The peak is VmHWM, this process's own resident high-water mark: ru_maxrss
# can carry the parent's peak over across exec.
MEMORY_GUARD = """
from pathlib import Path
from apostol.family import FamilySpec, GouldHopper, LogBase
from apostol.identities import verify_all
spec = FamilySpec(2, 0, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B, (2, -3), GouldHopper(2))
print(*(v.passed for v in verify_all(spec, 20, m_max=20)))
status = Path("/proc/self/status").read_text().splitlines()
print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)  # kB
"""


def test_verify_all_at_n_and_m_max_20_passes_under_100_mb():
    # In a new interpreter, so that no earlier test's caches count.  Double-index
    # streams P_N(x+z) past n_max, so this run peaks near 57 MB; building the
    # whole x+z table to n_max + m_max again (140 MB) fails here.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", MEMORY_GUARD], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    passed, peak_mb = run.stdout.splitlines()
    assert passed.split() == ["True"] * len(IdentityId)
    assert float(peak_mb) < 100, f"peak RSS {peak_mb} MB"


def test_verify_all_rejects_a_bad_m_max_before_building_any_table(monkeypatch):
    requests = _recording_builders(monkeypatch)
    with pytest.raises(ValueError, match="^m_max must be an int >= 0, got -1$"):
        verify_all(PRESETS["euler"], 2, m_max=-1)
    assert requests == []


@pytest.mark.parametrize("c, d, match", [
    (0, 3, "^symmetry scalars c and d must be nonzero$"),
    (2, 0, "^symmetry scalars c and d must be nonzero$"),
    (True, 3, "^symmetry scalars must be ints or Fractions"),
    (0.5, 3, "^symmetry scalars must be ints or Fractions"),
])
def test_verify_all_rejects_a_bad_symmetry_scalar_before_building_any_table(
        monkeypatch, c, d, match):
    # Symmetry runs last, so a late check would first build every other verifier's tables.
    requests = _recording_builders(monkeypatch)
    with pytest.raises(ValueError, match=match):
        verify_all(SYM_GH2, 12, c=c, d=d)
    assert requests == []


@pytest.mark.parametrize("spec", [*PRESETS.values(), SYM_GH2], ids=[*PRESETS, "sym-sym-gh2"])
def test_verify_all_returns_the_verdicts_of_the_verifiers_run_alone(spec):
    for n_max, m_max in [(4, 3), (4, 0), (2, 5)]:  # m_max below, at zero and above n_max
        alone = [identities_mod.verify_identity(identity, spec, n_max, m_max=m_max)
                 for identity in IdentityId]
        assert verify_all(spec, n_max, m_max=m_max) == alone, (n_max, m_max)


# (table, _kind, kwargs, its builds under verify_all, the verifiers that read it):
# verify_all shares P(x) and P(x+z), each reader of p(x) streams its own, and
# symmetry streams P(0).
SHARED_FAULTS = [
    ("P(x)", GH, {}, 1, {"series-def", "shift", "double-index", "shift-one"}),
    ("P(x+z)", GH, {"exp_argument": X + Z}, 1,
     {"shift", "shift-mixed", "double-index", "shift-general"}),
    ("p(x)", P_GH, {}, 2, {"series-def", "shift-general"}),
    ("P(0)", GH, {"exp_argument": ZERO}, 1, {"symmetry"}),
]


@pytest.mark.parametrize("j0", [1, 4])
@pytest.mark.parametrize("table, kind, match, builds, readers", SHARED_FAULTS,
                         ids=[table for table, *_ in SHARED_FAULTS])
def test_a_fault_in_a_shared_table_fails_every_reader(monkeypatch, table, kind, match,
                                                      builds, readers, j0):
    """A shared table is built once, any other per reader; each reader FAILs as alone.

    The shared tables are unified_members lists, and every member past them
    comes from the stream, perturbed too: run alone, a verifier reads each
    table's members from it.
    """
    hits = []
    monkeypatch.setattr(identities_mod, "unified_members", _faulty_table(
        identities_mod.unified_members, kind, match, j0, hits))
    monkeypatch.setattr(identities_mod, "_members", _faulty_stream(
        identities_mod._members, kind, match, j0, hits))
    verdicts = verify_all(SYM_GH2, 5, m_max=2)
    assert len(hits) == builds
    assert {v.identity.value for v in verdicts if not v.passed} == readers
    for v in verdicts:
        if not v.passed and v.identity is not IdentityId.DOUBLE_INDEX:
            assert v.counterexample.indices == (j0,), v.identity
    alone = [identities_mod.verify_identity(identity, SYM_GH2, 5, m_max=2)
             for identity in IdentityId]
    assert verdicts == alone
