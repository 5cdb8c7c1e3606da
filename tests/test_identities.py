"""Identity verifiers: presets, hand cases, randomized specs, failure reporting."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

import apostol.identities as identities_mod

from apostol.family import (
    FamilySpec,
    GouldHopper,
    Laguerre,
    LogBase,
    PRESETS,
    TruncatedExp,
    Unit,
    unified_members,
)
from apostol.identities import (
    Counterexample,
    IdentityId,
    Verdict,
    _verdict,
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

from helpers import random_poly

X = MultiPoly.var(VarId.X)
Y = MultiPoly.var(VarId.Y)
Z = MultiPoly.var(VarId.Z)

ONE_E = (LogBase.ONE, LogBase.E)
SYM = (LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B)


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
    # Unrelated random tables satisfy no symmetry; a check that passes them
    # would hold for any tables at all.
    rng = random.Random(99)

    def random_members(spec, n, **kwargs):
        return [random_poly(rng, max_degree=3, variables=(VarId.X, VarId.Y)) + 1
                for _ in range(n + 1)]

    monkeypatch.setattr(identities_mod, "unified_members", random_members)
    assert not verify_symmetry(PRESETS["hermite"], c, d, 6).passed


def test_symmetry_rejects_zero_scalars():
    with pytest.raises(ValueError):
        verify_symmetry(PRESETS["euler"], 0, 3, 2)


def test_verify_all_runs_every_identity_once():
    verdicts = verify_all(PRESETS["euler"], 4)
    assert [v.identity for v in verdicts] == list(IdentityId)
    assert all(v.passed for v in verdicts)
    assert all(v.counterexample is None for v in verdicts)


def test_verify_all_trivial_bound():
    assert all(v.passed for v in verify_all(PRESETS["bernoulli"], 0))


def test_shift_pass_implies_shift_one_pass():
    rng = random.Random(42)
    for _ in range(4):
        r = rng.randint(1, 2)
        alphas = tuple(Fraction(rng.choice([2, -3, 5, -1])) for _ in range(r))
        spec = FamilySpec(r, rng.randint(0, 1), *ONE_E, alphas)
        if verify_shift(spec, 4).passed:
            assert verify_shift_one(spec, 4).passed


def test_randomized_specs_small_matrix():
    rng = random.Random(2718)
    phis = [Unit(), GouldHopper(2), Laguerre(1), TruncatedExp(2)]
    for bases in (ONE_E, SYM):
        for phi in phis:
            r = rng.randint(1, 2)
            k = rng.randint(0, 2)
            alphas = []
            while len(alphas) < r:
                a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                if a != 1:
                    alphas.append(a)
            spec = FamilySpec(r, k, *bases, tuple(alphas), phi)
            verdicts = verify_all(spec, 4)
            assert all(v.passed for v in verdicts), (spec, [v for v in verdicts if not v.passed])


def test_unit_alpha_specs_pass():
    for spec in [
        FamilySpec(1, 1, *ONE_E, (Fraction(1),)),
        FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(3))),
        FamilySpec(2, 1, *ONE_E, (Fraction(1), Fraction(1)), GouldHopper(2)),
    ]:
        assert all(v.passed for v in verify_all(spec, 4))


def test_verdict_reports_first_lex_mismatch():
    spec = PRESETS["euler"]
    pairs = [((0,), X, X), ((1,), X, Z), ((2,), X, Z)]
    v = _verdict(IdentityId.SHIFT, spec, 2, iter(pairs))
    assert not v.passed
    assert v.counterexample == Counterexample((1,), X, Z)

    ok = _verdict(IdentityId.SHIFT, spec, 1, iter([((0,), X, X)]))
    assert ok.passed and ok.counterexample is None
    assert isinstance(ok, Verdict)


@pytest.mark.parametrize("j", [0, 3, 5])
def test_double_index_memo_reports_the_unmemoized_counterexample(monkeypatch, j):
    # Perturb one member of the x-table only; the memoized verifier must fail
    # at the same (n, m), with the same sides, as the double sum as stated.
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    n_max, m_max = 3, 4

    def faulty_members(s, n, **kwargs):
        members = unified_members(s, n, **kwargs)
        if "exp_argument" not in kwargs:
            members[j] = members[j] + X
        return members

    monkeypatch.setattr(identities_mod, "unified_members", faulty_members)
    verdict = verify_double_index(spec, n_max, m_max)

    in_z = unified_members(spec, n_max + m_max, exp_argument=Z)
    in_x = faulty_members(spec, n_max + m_max)

    def first_unmemoized_mismatch():
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

    expected = first_unmemoized_mismatch()
    assert expected is not None
    assert not verdict.passed
    assert verdict.counterexample == expected



# (verifier slug, perturbed table, name the verifier calls it by, kwargs of that call)
FAULTS = [
    ("series-def", "lhs P(x)", "unified_members", {}),
    ("series-def", "numbers M", "unified_members", {"include_x": False, "include_phi": False}),
    ("series-def", "general p(x)", "general_members", {}),
    ("shift", "lhs P(x+z)", "unified_members", {"exp_argument": X + Z}),
    ("shift", "P(x)", "unified_members", {}),
    ("shift-mixed", "lhs P(x+z)", "unified_members", {"exp_argument": X + Z}),
    ("shift-mixed", "general p(z)", "general_members", {"exp_argument": Z}),
    ("shift-mixed", "phi-free M(x)", "unified_members", {"include_phi": False}),
    ("shift-one", "lhs series", "unified_series", None),
    ("shift-one", "P(x)", "unified_members", {}),
    ("shift-general", "lhs P(x+z)", "unified_members", {"exp_argument": X + Z}),
    ("shift-general", "phi-free M(z)", "unified_members",
     {"include_phi": False, "exp_argument": Z}),
    ("shift-general", "general p(x)", "general_members", {}),
    ("symmetry", "lhs P(dx)", "unified_members", {"exp_argument": 3 * X}),
    ("symmetry", "rhs P(cx)", "unified_members", {"exp_argument": 2 * X}),
    ("symmetry", "both P(0)", "unified_members", {"include_x": False}),
]

VERIFIERS = {
    "series-def": verify_series_def,
    "shift": verify_shift,
    "shift-mixed": verify_shift_mixed,
    "shift-one": verify_shift_one,
    "shift-general": verify_shift_general,
    "symmetry": lambda spec, n: verify_symmetry(spec, 2, 3, n),
}


@pytest.mark.parametrize("j0", [1, 4])
@pytest.mark.parametrize("slug, table, name, match", FAULTS,
                         ids=[f"{slug}:{table}".replace(" ", "-") for slug, table, *_ in FAULTS])
def test_convolution_verifiers_fail_at_the_perturbed_index(monkeypatch, slug, table, name,
                                                         match, j0):
    """Adding y to entry j0 of one table a verifier reads makes it FAIL at n = j0.

    Every table is perturbed through the name the verifier calls (a series
    coefficient for shift-one's left side).  Entry 0 of each other table is
    a nonzero constant (1, or P_0 = -1 for this spec), so the fault cannot
    cancel at n = j0 and cannot show earlier.

        verifier       left side          right-side tables
        series-def     P(x)               M, p(x)
        shift          P(x+z)             P(x)          (z^k: plain powers)
        shift-mixed    P(x+z)             p(z), M(x)
        shift-one      series * e^t       P(x)          (ones: a literal)
        shift-general  P(x+z)             M(z), p(x)
        symmetry       P(dx)              P(cx), P(0)   (P(0) is read by both sides)
        double-index   see test_double_index_memo_reports_the_unmemoized_counterexample

    symmetry reads P(0) on both sides with weights d^j and c^j; they differ
    for j0 >= 1 (c=2, d=3), and agree at j0 = 0, where the fault first
    shows at n = 1, which is why j0 starts at 1.
    """
    spec = FamilySpec(2, 0, *SYM, (Fraction(2), Fraction(-3)), GouldHopper(2))
    original = getattr(identities_mod, name)
    hits = []

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        if match is None or kwargs == match:
            hits.append(kwargs)
            if isinstance(out, PowerSeries):
                coeffs = list(out.coeffs)
                coeffs[j0] = coeffs[j0] + Y
                return PowerSeries(coeffs)
            out[j0] = out[j0] + Y
        return out

    monkeypatch.setattr(identities_mod, name, faulty)
    verdict = VERIFIERS[slug](spec, 5)
    assert len(hits) == 1
    assert not verdict.passed
    assert verdict.counterexample.indices == (j0,)
