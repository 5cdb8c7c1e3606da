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

X = MultiPoly.var(VarId.X)
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
