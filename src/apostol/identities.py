"""Mechanical verification of the family's summation and symmetry identities.

Each verifier states one identity about the family members P_n(x, y) and
checks it as an exact polynomial equality for every index up to a bound.
The two sides are always produced by disjoint code paths: the left side
comes from re-expanding a generating series (with a shifted or rescaled
exponential argument), the right side from a finite binomial convolution of
previously extracted tables.  A pass is exact equality in the ring; there
is no numeric tolerance anywhere.

On failure the verdict carries the smallest failing index tuple in
lexicographic order together with both polynomials, so a broken identity
is reproducible from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .family import (
    FamilySpec,
    general_members,
    unified_members,
    unified_series,
)
from .polyring import MultiPoly, Scalar, VarId
from .series import PowerSeries


class IdentityId(Enum):
    """The identities this package can verify; values are the CLI slugs."""

    SERIES_DEF = "series-def"
    SHIFT = "shift"
    SHIFT_MIXED = "shift-mixed"
    DOUBLE_INDEX = "double-index"
    SHIFT_ONE = "shift-one"
    SHIFT_GENERAL = "shift-general"
    SYMMETRY = "symmetry"


@dataclass(frozen=True)
class Counterexample:
    indices: tuple[int, ...]
    lhs: MultiPoly
    rhs: MultiPoly


@dataclass(frozen=True)
class Verdict:
    identity: IdentityId
    spec: FamilySpec
    max_n: int
    passed: bool
    counterexample: Counterexample | None = None


def _verdict(identity: IdentityId, spec: FamilySpec, max_n: int,
             pairs: Iterable[tuple[tuple[int, ...], MultiPoly, MultiPoly]]) -> Verdict:
    """Fold index/lhs/rhs triples into a verdict; first mismatch wins.

    Callers yield indices in lexicographic order, so the reported
    counterexample is the smallest failing tuple.
    """
    for indices, lhs, rhs in pairs:
        if lhs != rhs:
            return Verdict(identity, spec, max_n, False,
                           Counterexample(indices, lhs, rhs))
    return Verdict(identity, spec, max_n, True)


def binomial_convolution(a: Sequence[MultiPoly | int], b: Sequence[MultiPoly],
                         n: int) -> MultiPoly:
    """sum_j C(n,j) * a[n-j] * b[j], built by plain ring + and *."""
    acc = MultiPoly.zero()
    for j in range(n + 1):
        acc = acc + comb(n, j) * a[n - j] * b[j]
    return acc


def _convolution_verdict(identity: IdentityId, spec: FamilySpec, n_max: int,
                         lhs: Sequence[MultiPoly], a: Sequence[MultiPoly | int],
                         b: Sequence[MultiPoly]) -> Verdict:
    """Check lhs[n] == binomial_convolution(a, b, n) for n = 0 .. n_max."""
    return _verdict(identity, spec, n_max, (
        ((n,), lhs[n], binomial_convolution(a, b, n)) for n in range(n_max + 1)
    ))


def verify_series_def(spec: FamilySpec, n_max: int) -> Verdict:
    """P_n(x,y) = sum_j C(n,j) * M_(n-j) * p_j(x,y).

    M are the family's numbers (no x, no phi) and p_j the plain
    two-variable general polynomials of the family's phi.
    """
    return _convolution_verdict(
        IdentityId.SERIES_DEF, spec, n_max,
        unified_members(spec, n_max),
        unified_members(spec, n_max, include_x=False, include_phi=False),
        general_members(spec.phi, n_max),
    )


def verify_shift(spec: FamilySpec, n_max: int) -> Verdict:
    """P_n(x+z, y) = sum_m C(n,m) * P_m(x,y) * z^(n-m)."""
    return _convolution_verdict(
        IdentityId.SHIFT, spec, n_max,
        unified_members(spec, n_max, exp_argument=_x_plus_z()),
        _powers(MultiPoly.var(VarId.Z), n_max),
        unified_members(spec, n_max),
    )


def verify_shift_mixed(spec: FamilySpec, n_max: int) -> Verdict:
    """P_n(x+z, y) = sum_j C(n,j) * M_j(x) * p_(n-j)(z, y).

    M_j(x) are the phi-free family polynomials in x; p are the general
    polynomials taken at the shift variable z.
    """
    return _convolution_verdict(
        IdentityId.SHIFT_MIXED, spec, n_max,
        unified_members(spec, n_max, exp_argument=_x_plus_z()),
        general_members(spec.phi, n_max, exp_argument=MultiPoly.var(VarId.Z)),
        unified_members(spec, n_max, include_phi=False),
    )


def verify_double_index(spec: FamilySpec, n_max: int, m_max: int) -> Verdict:
    """P_(n+m)(z,y) = sum_{p<=n, q<=m} C(n,p) C(m,q) (z-x)^(p+q) P_(n+m-p-q)(x,y).

    Checked for every pair (n, m) with n <= n_max and m <= m_max.  The double
    sum is grouped by s = p + q into weights w_s = sum_p C(n,p) C(m,s-p),
    each computed as stated.  The sum is then fixed by the weight vector
    (w_0 .. w_(n+m)), so right sides are memoized on it: equal weights give
    equal sums, exactly, whatever the weights turn out to be.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    total = n_max + m_max
    in_z = unified_members(spec, total, exp_argument=MultiPoly.var(VarId.Z))
    in_x = unified_members(spec, total)
    diff_pow = _powers(MultiPoly.var(VarId.Z) - MultiPoly.var(VarId.X), total)
    right_sides: dict[tuple[int, ...], MultiPoly] = {}

    def right_side(weights: tuple[int, ...]) -> MultiPoly:
        if weights not in right_sides:
            top = len(weights) - 1
            rhs = MultiPoly.zero()
            for s, weight in enumerate(weights):
                if weight:
                    rhs = rhs + weight * diff_pow[s] * in_x[top - s]
            right_sides[weights] = rhs
        return right_sides[weights]

    def pairs():
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                weights = tuple(
                    sum(comb(n, p) * comb(m, s - p)
                        for p in range(max(0, s - m), min(n, s) + 1))
                    for s in range(n + m + 1)
                )
                yield (n, m), in_z[n + m], right_side(weights)

    return _verdict(IdentityId.DOUBLE_INDEX, spec, n_max, pairs())


def verify_shift_one(spec: FamilySpec, n_max: int) -> Verdict:
    """P_n(x+1, y) = sum_m C(n,m) * P_(n-m)(x,y).

    The left side multiplies the generating series by e^t rather than
    substituting z = 1 into the general shift, keeping the code paths apart.
    """
    order = n_max + spec.r * spec.k + 1
    series = unified_series(spec, True, order) * PowerSeries.exp_linear(MultiPoly.one(), order)
    return _convolution_verdict(
        IdentityId.SHIFT_ONE, spec, n_max,
        [series.extract(n) for n in range(n_max + 1)],
        [1] * (n_max + 1),
        unified_members(spec, n_max),
    )


def verify_shift_general(spec: FamilySpec, n_max: int) -> Verdict:
    """P_n(x+z, y) = sum_m C(n,m) * M_(n-m)(z) * p_m(x, y).

    The companion of the mixed shift with the roles of the two variables
    exchanged: phi-free polynomials in z against general polynomials in x.
    """
    return _convolution_verdict(
        IdentityId.SHIFT_GENERAL, spec, n_max,
        unified_members(spec, n_max, exp_argument=_x_plus_z()),
        unified_members(spec, n_max, include_phi=False, exp_argument=MultiPoly.var(VarId.Z)),
        general_members(spec.phi, n_max),
    )


def verify_symmetry(spec: FamilySpec, c: Scalar, d: Scalar, n_max: int) -> Verdict:
    """sum_m C(n,m) c^(n-m) d^m P_(n-m)(dx,y) P_m(0,y) is symmetric in c, d.

    This is the z = 0 case of F(ct; dx) F(dt; cz) = F(dt; cx) F(ct; dz) for
    the generating function F(t; x), so the right side is
    sum_m C(n,m) d^(n-m) c^m P_(n-m)(cx,y) P_m(0,y).  Both sides are binomial
    convolutions of the tables at the rescaled arguments dx and cx, each
    against the x-free table P_m(0,y), with every entry pre-scaled by its
    scalar power; c and d must be nonzero rationals.
    """
    c, d = Fraction(c), Fraction(d)
    if c == 0 or d == 0:
        raise ValueError("symmetry scalars c and d must be nonzero")
    x = MultiPoly.var(VarId.X)
    at_zero = unified_members(spec, n_max, include_x=False)
    at_d = _scaled(unified_members(spec, n_max, exp_argument=x * d), c)
    zero_d = _scaled(at_zero, d)
    lhs = [binomial_convolution(at_d, zero_d, n) for n in range(n_max + 1)]
    return _convolution_verdict(
        IdentityId.SYMMETRY, spec, n_max, lhs,
        _scaled(unified_members(spec, n_max, exp_argument=x * c), d),
        _scaled(at_zero, c),
    )


def verify_all(spec: FamilySpec, n_max: int, *, c: Scalar = 2, d: Scalar = 3,
               m_max: int | None = None) -> list[Verdict]:
    """Run every identity with default auxiliary parameters, one verdict each."""
    if m_max is None:
        m_max = n_max
    return [
        verify_series_def(spec, n_max),
        verify_shift(spec, n_max),
        verify_shift_mixed(spec, n_max),
        verify_double_index(spec, n_max, m_max),
        verify_shift_one(spec, n_max),
        verify_shift_general(spec, n_max),
        verify_symmetry(spec, c, d, n_max),
    ]


def _x_plus_z() -> MultiPoly:
    return MultiPoly.var(VarId.X) + MultiPoly.var(VarId.Z)


def _scaled(table: list[MultiPoly], u: Fraction) -> list[MultiPoly]:
    """Entry i times u^i."""
    return [p * u ** i for i, p in enumerate(table)]


def _powers(p: MultiPoly, max_power: int) -> list[MultiPoly]:
    out = [MultiPoly.one()]
    for _ in range(max_power):
        out.append(out[-1] * p)
    return out
