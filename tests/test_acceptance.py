"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every check here is exact (polynomial or rational equality); there are no
numeric tolerances to tune.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import classical_oracle as co
from apostol.cli import main
from apostol.family import (
    ClassicalFamily,
    FamilySpec,
    GouldHopper,
    Laguerre,
    LogBase,
    PRESETS,
    TruncatedExp,
    Unit,
    extract_table,
    special_case_oracle,
    unified_members,
)
from apostol.identities import verify_all
from apostol.polyring import MultiPoly, VarId
from apostol.series import PowerSeries

from helpers import (
    random_invertible_series,
    random_poly,
    random_series,
    xpoly_to_multipoly,
)
from test_cli import GOLDEN_DIR, GOLDEN_MANIFEST

ONE_E = (LogBase.ONE, LogBase.E)
SYM = (LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B)

ALL_PHIS = [Unit(), GouldHopper(2), GouldHopper(3), Laguerre(1), Laguerre(2),
            TruncatedExp(1), TruncatedExp(2)]


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _random_non_unit_alphas(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    out = []
    while len(out) < r:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if a != 1:
            out.append(a)
    return tuple(out)


def test_criterion_1_reduction_suite():
    with criterion("1 (reduction suite)"):
        for lam in [Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 7)]:
            for r in [1, 2]:
                n_max = 8
                # Bernoulli-type: k=1, alphas = lam, factor (-1)^r
                fam = extract_table(FamilySpec(r, 1, *ONE_E, (lam,) * r), n_max)
                oracle = special_case_oracle(ClassicalFamily.APOSTOL_BERNOULLI, r, lam, n_max)
                for n in range(n_max + 1):
                    assert fam.poly(n) == Fraction((-1) ** r) * oracle.poly(n)
                # Euler-type: k=0, alphas = -lam, factor 1
                fam = extract_table(FamilySpec(r, 0, *ONE_E, (-lam,) * r), n_max)
                oracle = special_case_oracle(ClassicalFamily.APOSTOL_EULER, r, lam, n_max)
                for n in range(n_max + 1):
                    assert fam.poly(n) == oracle.poly(n)
                # Genocchi-type: k=1, alphas = -lam, factor 2^(-r)
                fam = extract_table(FamilySpec(r, 1, *ONE_E, (-lam,) * r), n_max)
                oracle = special_case_oracle(ClassicalFamily.APOSTOL_GENOCCHI, r, lam, n_max)
                for n in range(n_max + 1):
                    assert fam.poly(n) == Fraction(1, 2 ** r) * oracle.poly(n)


def test_criterion_2_classical_values():
    with criterion("2 (classical values)"):
        x = MultiPoly.var(VarId.X)
        euler = [xpoly_to_multipoly(p) for p in co.euler_polys(4)]
        bernoulli = [xpoly_to_multipoly(p) for p in co.apostol_bernoulli(1, 1, 4)]
        genocchi_nums = co.genocchi_numbers(6)

        # spot values, all derived from the long-division oracle above
        assert bernoulli[2] == x * x - x + Fraction(1, 6)
        assert euler[1] == x - Fraction(1, 2)
        assert genocchi_nums[0] == 0
        assert genocchi_nums[1] == 1

        fam_e = extract_table(PRESETS["euler"], 4)
        for n in range(5):
            assert fam_e.poly(n) == euler[n]
        fam_b = extract_table(PRESETS["bernoulli"], 4)
        for n in range(5):
            assert fam_b.poly(n) == -bernoulli[n]
        fam_g = extract_table(PRESETS["genocchi"], 6)
        for n in range(7):
            at_zero = fam_g.poly(n).substitute({VarId.X: 0})
            assert at_zero == MultiPoly.const(genocchi_nums[n] / 2)


def _identity_matrix() -> list[FamilySpec]:
    rng = random.Random(96321)
    specs: list[FamilySpec] = []
    for bases in (ONE_E, SYM):
        for phi in ALL_PHIS:
            for r in (1, 2, 3):
                k = rng.randint(0, 2)
                specs.append(FamilySpec(r, k, *bases, _random_non_unit_alphas(rng, r), phi))
    # dedicated unit-alpha (Bernoulli-type) runs, bases (1, e) only
    unit_runs = [
        (1, 1, (1,)),
        (1, 2, (1,)),
        (2, 1, (1, 3)),
        (2, 2, (1, 1)),
        (3, 1, (1, 2, -2)),
        (2, 1, (1, 1)),
        (3, 2, (1, 1, 5)),
        (3, 1, (1, Fraction(-5, 7), Fraction(1, 3))),
    ]
    for i, (r, k, alphas) in enumerate(unit_runs):
        phi = ALL_PHIS[i % len(ALL_PHIS)]
        specs.append(FamilySpec(r, k, *ONE_E, tuple(map(Fraction, alphas)), phi))
    # a few more spread over every k at both base pairs
    for bases in (ONE_E, SYM):
        for k in (0, 1, 2):
            r = rng.randint(1, 3)
            phi = ALL_PHIS[rng.randrange(len(ALL_PHIS))]
            specs.append(FamilySpec(r, k, *bases, _random_non_unit_alphas(rng, r), phi))
    return specs


def test_criterion_3_identity_suite():
    with criterion("3 (identity suite)"):
        specs = _identity_matrix()
        assert len(specs) >= 50
        cd_pairs = [(1, 2), (2, 3), (3, 5)]
        failures = []
        for i, spec in enumerate(specs):
            c, d = cd_pairs[i % 3]
            verdicts = verify_all(spec, 6, c=Fraction(c), d=Fraction(d))
            failures.extend((spec, v) for v in verdicts if not v.passed)
        assert not failures, failures[:3]


def test_criterion_4_vanishing_invariant():
    with criterion("4 (vanishing invariant)"):
        rng = random.Random(555)
        for i in range(20):
            r = rng.randint(1, 3)
            k = rng.randint(1, 2)
            bases = ONE_E if i % 2 else SYM
            phi = ALL_PHIS[i % len(ALL_PHIS)]
            spec = FamilySpec(r, k, *bases, _random_non_unit_alphas(rng, r), phi)
            members = unified_members(spec, r * k - 1)
            assert all(p == MultiPoly.zero() for p in members)


def test_criterion_5_series_engine_oracles():
    with criterion("5 (series engine oracles)"):
        rng = random.Random(777)
        # Cauchy product against the naive double loop
        for _ in range(100):
            order = rng.randint(1, 12)
            f = random_series(rng, order, max_degree=2, max_terms=3)
            g = random_series(rng, order, max_degree=2, max_terms=3)
            prod = f * g
            for n in range(order):
                acc = MultiPoly.zero()
                for i in range(n + 1):
                    acc = acc + f.coeffs[i] * g.coeffs[n - i]
                assert prod.coeffs[n] == acc
        # inversion round trip
        for _ in range(100):
            order = rng.randint(2, 12)
            f = random_invertible_series(rng, order)
            assert f * f.invert() == PowerSeries.one(order)
        # division with valuation round trip
        for _ in range(100):
            order = rng.randint(3, 12)
            v = rng.randint(0, 2)
            lead = Fraction(0)
            while lead == 0:
                lead = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            g_coeffs = [MultiPoly.zero()] * v + [MultiPoly.const(lead)]
            g_coeffs += [random_poly(rng, max_degree=2, max_terms=2)
                         for _ in range(order - v - 1)]
            g = PowerSeries(g_coeffs)
            f = random_series(rng, order, max_degree=2, max_terms=3)
            assert (f * g).divide_with_valuation(g, v) == PowerSeries(f.coeffs[:order - v])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_criterion_6_cli_golden_files():
    with criterion("6 (CLI golden files)"):
        for name, argv in GOLDEN_MANIFEST:
            rc, out = _run_cli(argv)
            assert rc == 0, name
            assert out == (GOLDEN_DIR / name).read_text(), name
        # JSON round trip on every table the CLI can emit
        for preset in sorted(PRESETS):
            rc, text = _run_cli(["expand", "--preset", preset, "--n", "3"])
            assert rc == 0
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
        for preset in ["bernoulli", "euler", "genocchi", "gould-hopper",
                       "hermite", "laguerre", "truncated-exp"]:
            rc, text = _run_cli(["table", "--preset", preset, "--n", "3"])
            assert rc == 0
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
