"""Fault coverage: which checks catch each of eleven faults in building and checking tables.

Each fault is patched on cold caches and changes one thing: six below the
factor caches (the last replaces the whole core), one in the step that
reads the members off the product of the two factors (the n! that
PowerSeries.product_member passes to the kernel), one in series inversion,
two in the product kernels, and one in the verifiers' exponential argument
x+z.  The left-side kernel, as the series products call it, drops the last
of 3 or more triples; the right-side kernel drops its last triple, which
changes no table, only every right side.  Reading x+z as x changes no table
either, only the verifiers that read P(x+z).
The checks are the seven verdicts of verify_all at n = 5, plus, for the
(1, e) spec, its phi-free table against classical_oracle.apostol_euler;
for the sym/sym spec, its table against the (1, e) map: the same spec's
(1, e) table, mapped term by term onto its bases with helpers.LOGS's log a
and log b; and, for both, its table against reference_oracle.  Both
oracles solve their generating function on the reference ring with one
triangular solve and share no code with the package.  FAULTS
pins every cell as measured, and the index at which the reference first
differs; README prints the same table, so a change that turns a catch into
a miss, or a miss into a catch, fails here and shows there.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from apostol import family, identities, series
from apostol.family import (PHI_KINDS, FamilySpec, GouldHopper, Laguerre, LogBase, TruncatedExp,
                            Unit, extract_table, unified_members)
from apostol.identities import IdentityId, verify_all
from apostol.polyring import MultiPoly, VarId
from apostol.series import PowerSeries

import classical_oracle
from helpers import (LOGS, cold_factor_caches, drop_last_left_side_triple,
                     drop_last_right_side_triple, lift, random_series, reference)

N = 5
SYM = (LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B)
SPECS = {
    "sym/sym": FamilySpec(2, 0, *SYM, (2, -3), GouldHopper(2)),
    "(1, e)": FamilySpec(2, 0, LogBase.ONE, LogBase.E, (-2, -2), GouldHopper(2)),
}
# k = 0 and alphas -lambda make the (1, e) spec's phi-free table Apostol-Euler, order 2, lambda 2.
ORACLE = lift(classical_oracle.apostol_euler(2, 2, N))
MAP, REF = "(1, e) map", "reference"
CHECKS = [*(identity.value for identity in IdentityId), "oracle", MAP, REF]
VERDICTS = {identity.value for identity in IdentityId}
# The checks whose two sides need e^((x+z)t) = e^(xt) e^(zt) or e^((x+1)t) = e^(xt) e^t.
SHIFTS = {"shift", "shift-mixed", "double-index", "shift-one", "shift-general"}


def one_e_map(spec: FamilySpec, n_max: int) -> list[MultiPoly]:
    """P_0 .. P_n_max of a spec with no unit alpha, built from its (1, e) table.

    With D = log b - log a, alpha b^t - a^t = a^t (alpha e^(Dt) - 1), so
    P^(a,b)_n(x, y) = D^(n-rk) P^(1,e)_n((x - r log a) / D, y / D^s) for the
    phi step s (0 for unit): each term c x^i y^j of P^(1,e)_n becomes
    c (x - r log a)^i y^j D^(n - rk - i - s j).  A (1, e) table holds only x and y.
    """
    log_a, log_b = LOGS[spec.a], LOGS[spec.b]
    x, y = MultiPoly.var(VarId.X) - spec.r * log_a, MultiPoly.var(VarId.Y)
    d, s, rk = log_b - log_a, spec.phi.step or 0, spec.r * spec.k
    members = []
    for n, member in enumerate(unified_members(spec.replace(a=LogBase.ONE, b=LogBase.E), n_max)):
        members.append(sum((c * x ** i * y ** j * d ** (n - rk - i - s * j)
                            for (i, j, *_), c in member.terms.items()), MultiPoly.zero()))
    return members


@pytest.mark.parametrize("spec", [
    FamilySpec(2, 1, *SYM, (2, -3), GouldHopper(2)),
    FamilySpec(2, 0, *SYM, (2, -3), GouldHopper(2)),
    FamilySpec(1, 0, *SYM, (Fraction(5, 7),), TruncatedExp(2)),
    FamilySpec(3, 2, *SYM, (-1, -1, 3), Laguerre(1)),
], ids=["r2-k1-gh2", "r2-k0-gh2", "r1-k0-te2", "r3-k2-laguerre1"])
def test_the_one_e_map_gives_the_symbolic_table(spec):
    assert one_e_map(spec, 6) == unified_members(spec, 6)


REFERENCE_SPECS = {
    "sym/sym r2 k0 gh2": FamilySpec(2, 0, *SYM, (2, -3), GouldHopper(2)),
    "sym/sym r1 k2 te2": FamilySpec(1, 2, *SYM, (Fraction(1, 2),), TruncatedExp(2)),
    "sym/sym r3 k1 laguerre1": FamilySpec(3, 1, *SYM, (2, -3, Fraction(5, 7)), Laguerre(1)),
    "(1, e) r3 k3 unit": FamilySpec(3, 3, LogBase.ONE, LogBase.E, (1, 1, Fraction(1, 2))),
    "(1, e) r2 k1 te2": FamilySpec(2, 1, LogBase.ONE, LogBase.E, (1, Fraction(5, 7)),
                                   TruncatedExp(2)),
    "(1, e) r3 k2 laguerre1": FamilySpec(3, 2, LogBase.ONE, LogBase.E, (-1, -1, 3), Laguerre(1)),
    "(1, e) r1 k1 unit": FamilySpec(1, 1, LogBase.ONE, LogBase.E, (1,)),
    "(1, e) r2 k0 gh2": FamilySpec(2, 0, LogBase.ONE, LogBase.E, (-2, -2), GouldHopper(2)),
    "(1, sym) r2 k0 gh3": FamilySpec(2, 0, LogBase.ONE, LogBase.SYMBOLIC_B, (Fraction(5, 7), -3),
                                     GouldHopper(3)),
}


def test_the_reference_oracle_gives_every_table():
    # Symbolic and (1, e) bases, unit alphas, k up to r, every phi kind: term for term at n <= 8.
    start = time.perf_counter()
    for name, spec in REFERENCE_SPECS.items():
        assert reference(spec, 8) == unified_members(spec, 8), name
    assert time.perf_counter() - start < 1


def _swap_log_bases(monkeypatch):
    log_poly = LogBase.log_poly
    swap = {LogBase.SYMBOLIC_A: LogBase.SYMBOLIC_B, LogBase.SYMBOLIC_B: LogBase.SYMBOLIC_A}
    monkeypatch.setattr(LogBase, "log_poly", lambda base: log_poly(swap.get(base, base)))


def _shift_alphas(monkeypatch):
    denominator = family.denominator_series
    monkeypatch.setattr(family, "denominator_series", lambda spec, order: denominator(
        spec.replace(alphas=[a + Fraction(1, 1000) for a in spec.alphas]), order))


def _double_prefactor(monkeypatch):
    denominator = family.denominator_series
    monkeypatch.setattr(family, "denominator_series",
                        lambda spec, order: denominator(spec, order).scale(Fraction(1, 2)))


def _exp_linear_over_n_plus_one(monkeypatch):
    # exp_linear's 1/n is the series module's one Fraction: read it as 1/(n+1).
    monkeypatch.setattr(series, "Fraction", lambda one, n: Fraction(one, n + 1))


def _square_gould_hopper_weights(monkeypatch):
    monkeypatch.setitem(PHI_KINDS, "gould-hopper",
                        ("m", 2, lambda j: Fraction(1, factorial(j) ** 2)))


def _fold_member_factorial_as_n_plus_one_factorial(monkeypatch):
    kernel = series.sum_of_products

    def folding(triples, *times):
        # Only the member reader passes a factorial: n! with member n's n + 1 triples.
        triples = list(triples)
        return kernel(triples, *(len(triples) * n_factorial for n_factorial in times))

    monkeypatch.setattr(series, "sum_of_products", folding)


def _invert_weight_doubled(monkeypatch):
    # invert's g_n = -(1/f_0) sum_i f_i g_(n-i) read with -2/f_0 is exactly the
    # inverse of f_0 + 2 (f - f_0), so the mutant needs no copy of invert.
    invert = PowerSeries.invert
    monkeypatch.setattr(PowerSeries, "invert", lambda f: invert(
        PowerSeries([f.coeffs[0], *(c * 2 for c in f.coeffs[1:])])))


def _arbitrary_core(monkeypatch):
    # One fixed series in La and Lb per phi-free spec, seeded by it and drawn
    # in t order, so the core at every order is a prefix of any larger one.
    monkeypatch.setattr(family, "_core_quotient", lambda spec, order: random_series(
        random.Random(repr(spec)), order, variables=(VarId.LA, VarId.LB)))


def _x_plus_z_read_as_x(monkeypatch):
    # identities names x+z in one place: read it as x.
    monkeypatch.setattr(identities, "_x_plus_z", lambda: MultiPoly.var(VarId.X))


# fault -> (patch, {spec: the checks that catch it}, the first n at which the
# reference differs wherever it catches the fault); "none" patches nothing.
FAULTS = {
    "none": (lambda monkeypatch: None, {"sym/sym": set(), "(1, e)": set()}, None),
    "La and Lb swapped": (_swap_log_bases, {"sym/sym": {MAP, REF}, "(1, e)": set()}, 1),
    "every alpha + 1/1000": (_shift_alphas, {"sym/sym": {REF}, "(1, e)": {"oracle", REF}}, 0),
    "prefactor doubled": (_double_prefactor, {"sym/sym": {REF}, "(1, e)": {"oracle", REF}}, 0),
    "Gould-Hopper weight 1/(j!)^2": (_square_gould_hopper_weights,
                                      {"sym/sym": {REF}, "(1, e)": {REF}}, 4),
    "`exp_linear`'s 1/n read as 1/(n+1)": (
        _exp_linear_over_n_plus_one,
        {"sym/sym": SHIFTS | {MAP, REF}, "(1, e)": SHIFTS | {"oracle", REF}}, 1),
    "member n! folded as (n+1)!": (_fold_member_factorial_as_n_plus_one_factorial,
                                   {"sym/sym": VERDICTS | {REF},
                                    "(1, e)": VERDICTS | {"oracle", REF}}, 1),
    "left-side kernel drops its last of 3+ triples": (
        drop_last_left_side_triple,
        {"sym/sym": VERDICTS | {MAP, REF}, "(1, e)": VERDICTS | {"oracle", REF}}, 2),
    "right-side kernel drops its last triple": (
        drop_last_right_side_triple, {"sym/sym": VERDICTS, "(1, e)": VERDICTS}, None),
    "x+z read as x": (_x_plus_z_read_as_x,
                      {"sym/sym": SHIFTS - {"shift-one"}, "(1, e)": SHIFTS - {"shift-one"}},
                      None),
    "`invert`'s -1/f0 read as -2/f0": (_invert_weight_doubled,
                                       {"sym/sym": {MAP, REF}, "(1, e)": {"oracle", REF}}, 1),
    "core replaced by an arbitrary series": (_arbitrary_core,
                                             {"sym/sym": {MAP, REF}, "(1, e)": {"oracle", REF}},
                                             0),
}
# The rows whose fault is in the core or in phi, which symmetry cannot see.
CORE_OR_PHI = ["La and Lb swapped", "every alpha + 1/1000", "prefactor doubled",
               "Gould-Hopper weight 1/(j!)^2", "`invert`'s -1/f0 read as -2/f0",
               "core replaced by an arbitrary series"]


def _applies(check: str, spec: FamilySpec) -> bool:
    """Whether check reads spec: the oracle only the (1, e) spec, the (1, e) map every other."""
    one_e = (spec.a, spec.b) == (LogBase.ONE, LogBase.E)
    return {"oracle": one_e, MAP: not one_e}.get(check, True)


def _caught(spec: FamilySpec) -> tuple[set[str], int | None]:
    """The checks that fail on spec, by slug, "oracle", the (1, e) map and "reference".

    With them the first n at which the reference differs, None where it does not.
    """
    caught = {v.identity.value for v in verify_all(spec, N) if not v.passed}
    if _applies("oracle", spec):
        phi_free = extract_table(spec.replace(phi=Unit()), N)
        if [poly for _, poly in phi_free] != ORACLE:
            caught.add("oracle")
    table = unified_members(spec, N)
    if _applies(MAP, spec) and one_e_map(spec, N) != table:
        caught.add(MAP)
    first = next((n for n, (ref, member) in enumerate(zip(reference(spec, N), table))
                  if ref != member), None)
    if first is not None:
        caught.add(REF)
    return caught, first


def _table(spec: FamilySpec) -> tuple:
    return extract_table(spec, N).entries


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_is_caught_by_exactly_its_pinned_checks(monkeypatch, fault):
    patch, expected, reference_at = FAULTS[fault]
    with cold_factor_caches():
        clean = {name: _table(spec) for name, spec in SPECS.items()}
    with cold_factor_caches(), monkeypatch.context() as patched:
        patch(patched)
        changed = {name for name, spec in SPECS.items() if _table(spec) != clean[name]}
        caught = {name: _caught(spec) for name, spec in SPECS.items()}
    assert {name: checks for name, (checks, _) in caught.items()} == expected
    assert {name: first for name, (_, first) in caught.items()} == {
        name: reference_at if REF in checks else None for name, checks in expected.items()}
    # The base swap has nothing to swap on (1, e), and neither the right-side
    # kernel nor x+z builds a table, so only a verdict can catch their faults.
    unchanged = {"none": set(SPECS), "La and Lb swapped": {"(1, e)"},
                 "right-side kernel drops its last triple": set(SPECS),
                 "x+z read as x": set(SPECS)}.get(fault, set())
    assert changed == set(SPECS) - unchanged


def test_the_table_keeps_its_structure():
    # Double-index runs the shift check at n + m_max, so on every row the two
    # are caught or missed together.  Symmetry's product is symmetric for
    # any core and any phi, so it passes every fault in either.
    for fault, (_, expected, _) in FAULTS.items():
        for name, caught in expected.items():
            assert ("shift" in caught) == ("double-index" in caught), (fault, name)
            if fault in CORE_OR_PHI:
                assert "symmetry" not in caught, (fault, name)


def fault_table_markdown() -> str:
    """FAULTS as the markdown table README prints: FAIL where a check catches the fault."""
    rows = ["| fault | spec | " + " | ".join(CHECKS) + " |",
            "|---|---|" + "---|" * len(CHECKS)]
    for fault, (_, expected, _) in FAULTS.items():
        for name, spec in SPECS.items():
            cells = ["FAIL" if check in expected[name] else
                     "pass" if _applies(check, spec) else "n/a" for check in CHECKS]
            rows.append(f"| {fault} | {name} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def test_readme_prints_the_fault_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert fault_table_markdown() in readme
