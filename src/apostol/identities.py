"""Mechanical verification of the family's summation and symmetry identities.

Each verifier states one identity about the family members P_n(x, y) and
checks it as an exact polynomial equality for every index up to a bound.
The two sides are always produced by disjoint code paths: the left side
comes from re-expanding a generating series (with a shifted or rescaled
exponential argument), the right side from a finite binomial convolution of
previously extracted tables.  A pass is exact equality in the ring; there
is no numeric tolerance anywhere.

Every table is named by a spec, or a phi for the general polynomials p, and
an exponential argument alone: P(x+z) passes exp_argument=x+z, P(0,y) a zero
argument, which drops e^(xt), and the phi-free tables M(x), M(z) and the
numbers M pass spec.replace(phi=Unit()).
Symmetry's left side reads no table: it re-expands the product
F(ct; dx) F(dt; 0) from the series family.unified_series (the phi-free core)
and family.general_series, each at rescaled t.  Like unified_members, it
reads each member off the last Cauchy sum with n! cancelled before the
single normalization (PowerSeries.product_member), not through extract.

Every side is a stream of members, read once in ascending n.  _stream
serves every table on either side, p included: any prefix of a table
verify_all shares, then family's member stream _members, which builds each
member when the check reads it, so a verifier run alone holds only the
members it has compared, and a FAIL at n builds no member past n.  verify_all first
builds the two tables four verifiers each read, at the largest n any reader
holds: P(x) at n_max + m_max and P(x+z) at n_max, keyed by (spec,
exp_argument), which compare by value (so when phi is unit, M(x) is found as
P(x)).  No verifier reads one shared table on both of its sides, so the
sides stay apart.  They may share the factor values family caches, the core
and e^(arg t) phi, which both sides already computed with the same code, but
never a table.

Every identity is checked as lhs[n] == binomial_convolution(a, b, n), and
every right side takes its products inside the right-side kernel
polyring.linear_combination, which multiplies each (c, a, b) triple in its
own loop and normalizes once per right side.  It shares no code with
polyring.sum_of_products, the left-side kernel behind ring * and every series
product, so a fault in either shows as a FAIL instead of cancelling out.
After the automorphism z -> x + h, the double-index identity at (n, m) is the
shift identity at N = n + m, so double-index runs the shift check at
n_max + m_max and reports a FAIL at the first pair with that N, both sides
mapped back with MultiPoly.substitute({Z: z - x}).  Its sides are
shift's streams, so under verify_all it reads the shared P(x+z) up to n_max
and the shared P(x) up to n_max + m_max, and streams the members past them.
Every comparison of two sides happens in one loop, _convolution_verdict,
which reads each side once, in ascending n.

On failure the verdict carries the smallest failing index tuple in
lexicographic order together with both polynomials, so a broken identity
is reproducible from the report alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb
from operator import mul

from .family import FamilySpec, Phi, Unit, _members, general_series, unified_members, unified_series
from .polyring import (MultiPoly, Record, Scalar, VarId, check_int, is_exact_scalar,
                       linear_combination)
from .series import PowerSeries

__all__ = [
    "Counterexample", "IdentityId", "Verdict", "verify_all", "verify_double_index",
    "verify_series_def", "verify_shift", "verify_shift_general", "verify_shift_mixed",
    "verify_shift_one", "verify_symmetry",
]


class IdentityId(Enum):
    """The one list of identities, in verify_all's order: a new one is a verifier and a member.

    A member is its CLI slug and its verifier's arguments after spec.  The
    verifier is named after the slug (shift-one: verify_shift_one) and looked
    up here at call time, so a patched verifier runs.
    """

    SERIES_DEF = "series-def"
    SHIFT = "shift"
    SHIFT_MIXED = "shift-mixed"
    DOUBLE_INDEX = "double-index", ("n_max", "m_max")
    SHIFT_ONE = "shift-one"
    SHIFT_GENERAL = "shift-general"
    SYMMETRY = "symmetry", ("c", "d", "n_max")

    def __new__(cls, slug: str, args: tuple[str, ...] = ("n_max",)):
        member = object.__new__(cls)
        member._value_, member.args = slug, args
        member.verifier = "verify_" + slug.replace("-", "_")
        return member


# The verifier arguments besides n_max, their defaults, in CLI check order; m_max None is n_max.
AUXILIARY = {"c": 2, "d": 3, "m_max": None}


class Counterexample(Record):
    __slots__ = ("indices", "lhs", "rhs")

    def __init__(self, indices: tuple[int, ...], lhs: MultiPoly, rhs: MultiPoly):
        super().__init__(indices, lhs, rhs)


class Verdict(Record):
    __slots__ = ("identity", "spec", "max_n", "passed", "counterexample")

    def __init__(self, identity: IdentityId, spec: FamilySpec, max_n: int, passed: bool,
                 counterexample: Counterexample | None = None):
        super().__init__(identity, spec, max_n, passed, counterexample)


def _stream(tables: Mapping, table: FamilySpec | Phi, n_max: int, **kwargs) -> Iterator[MultiPoly]:
    """Members 0 .. n_max of the table _members reads for a spec or a phi: one side, read once.

    Any prefix of a shared table comes first; _members builds each member past it when read.
    """
    check_int("n_max", n_max, 0)
    prefix = tables.get((table, kwargs.get("exp_argument")), [])[:n_max + 1]
    return chain(prefix, _members(table, len(prefix), n_max, **kwargs))


def binomial_convolution(a: Sequence[MultiPoly], b: Sequence[MultiPoly], n: int) -> MultiPoly:
    """sum_j C(n,j) * a[n-j] * b[j]: one linear_combination takes every product."""
    return linear_combination((comb(n, j), a[n - j], b[j]) for j in range(n + 1))


def _convolution_verdict(identity: IdentityId, spec: FamilySpec, n_max: int,
                         lhs: Iterable[MultiPoly], a: Iterable[MultiPoly],
                         b: Iterable[MultiPoly]) -> Verdict:
    """Check lhs[n] == binomial_convolution(a, b, n) for n = 0 .. n_max; first mismatch wins.

    lhs, a and b each hold exactly n_max + 1 entries and are read once, in
    ascending n: entry n of each is built just before the comparison at n, so
    a FAIL at n builds no entry past n and reports the entries it compared.
    A left entry is dropped after its comparison; a and b entries are kept,
    since every later right side reads them.
    """
    a_read, b_read = [], []
    for n, left, a_n, b_n in zip(range(n_max + 1), lhs, a, b, strict=True):
        a_read.append(a_n)
        b_read.append(b_n)
        rhs = binomial_convolution(a_read, b_read, n)
        if left != rhs:
            return Verdict(identity, spec, n_max, False, Counterexample((n,), left, rhs))
        del rhs  # else it is held while entry n + 1 and its right side are built
    return Verdict(identity, spec, n_max, True)


def verify_series_def(spec: FamilySpec, n_max: int, *, _tables: Mapping = {}) -> Verdict:
    """P_n(x,y) = sum_j C(n,j) * M_(n-j) * p_j(x,y).

    M are the family's numbers (zero exponential argument, phi-free spec)
    and p_j the plain two-variable general polynomials of the family's phi.
    """
    return _convolution_verdict(
        IdentityId.SERIES_DEF, spec, n_max,
        _stream(_tables, spec, n_max),
        _stream(_tables, spec.replace(phi=Unit()), n_max, exp_argument=MultiPoly.zero()),
        _stream(_tables, spec.phi, n_max),
    )


def verify_shift(spec: FamilySpec, n_max: int, *, _tables: Mapping = {}) -> Verdict:
    """P_n(x+z, y) = sum_m C(n,m) * P_m(x,y) * z^(n-m)."""
    return _convolution_verdict(
        IdentityId.SHIFT, spec, n_max,
        _stream(_tables, spec, n_max, exp_argument=_x_plus_z()),
        accumulate(repeat(MultiPoly.var(VarId.Z), n_max), mul, initial=MultiPoly.one()),
        _stream(_tables, spec, n_max),
    )


def verify_shift_mixed(spec: FamilySpec, n_max: int, *, _tables: Mapping = {}) -> Verdict:
    """P_n(x+z, y) = sum_j C(n,j) * M_j(x) * p_(n-j)(z, y).

    M_j(x) are the phi-free family polynomials in x; p are the general
    polynomials taken at the shift variable z.
    """
    return _convolution_verdict(
        IdentityId.SHIFT_MIXED, spec, n_max,
        _stream(_tables, spec, n_max, exp_argument=_x_plus_z()),
        _stream(_tables, spec.phi, n_max, exp_argument=MultiPoly.var(VarId.Z)),
        _stream(_tables, spec.replace(phi=Unit()), n_max),
    )


def verify_double_index(spec: FamilySpec, n_max: int, m_max: int, *,
                        _tables: Mapping = {}) -> Verdict:
    """P_(n+m)(z,y) = sum_{p<=n, q<=m} C(n,p) C(m,q) (z-x)^(p+q) P_(n+m-p-q)(x,y).

    Checked for every pair (n, m) with n <= n_max and m <= m_max.  After the
    ring automorphism z -> x + h (h in the z slot), the pair's weights grouped
    by s = p + q are sum_p C(n,p) C(m,s-p) = C(n+m, s) (Vandermonde): the pair
    is the shift identity at N = n + m, so it runs the shift check at
    n_max + m_max.  A FAIL at N is reported at the first pair in lexicographic
    order with that N, (max(0, N - m_max), min(N, m_max)), in (x, z).
    Its left side is shift's stream of P_N(x+z): it holds no table of its own.
    """
    check_int("n_max", n_max, 0)
    check_int("m_max", m_max, 0)
    shift = verify_shift(spec, n_max + m_max, _tables=_tables)
    fail = shift.counterexample
    if fail is not None:  # report the mismatch in (x, z)
        (nm,) = fail.indices
        unshift = {VarId.Z: MultiPoly.var(VarId.Z) - MultiPoly.var(VarId.X)}
        fail = Counterexample((max(0, nm - m_max), min(nm, m_max)),
                              fail.lhs.substitute(unshift), fail.rhs.substitute(unshift))
    return Verdict(IdentityId.DOUBLE_INDEX, spec, n_max, shift.passed, fail)


def verify_shift_one(spec: FamilySpec, n_max: int, *, _tables: Mapping = {}) -> Verdict:
    """P_n(x+1, y) = sum_m C(n,m) * P_(n-m)(x,y).

    The left side re-expands with the exponential argument x + 1 rather than
    substituting z = 1 into the general shift, keeping the code paths apart.
    """
    return _convolution_verdict(
        IdentityId.SHIFT_ONE, spec, n_max,
        _stream(_tables, spec, n_max, exp_argument=MultiPoly.var(VarId.X) + 1),
        repeat(MultiPoly.one(), n_max + 1),
        _stream(_tables, spec, n_max),
    )


def verify_shift_general(spec: FamilySpec, n_max: int, *, _tables: Mapping = {}) -> Verdict:
    """P_n(x+z, y) = sum_m C(n,m) * M_(n-m)(z) * p_m(x, y).

    The companion of the mixed shift with the roles of the two variables
    exchanged: phi-free polynomials in z against general polynomials in x.
    """
    return _convolution_verdict(
        IdentityId.SHIFT_GENERAL, spec, n_max,
        _stream(_tables, spec, n_max, exp_argument=_x_plus_z()),
        _stream(_tables, spec.replace(phi=Unit()), n_max, exp_argument=MultiPoly.var(VarId.Z)),
        _stream(_tables, spec.phi, n_max),
    )


def verify_symmetry(spec: FamilySpec, c: Scalar, d: Scalar, n_max: int, *,
                    _tables: Mapping = {}) -> Verdict:
    """sum_m C(n,m) c^(n-m) d^m P_(n-m)(dx,y) P_m(0,y) is symmetric in c, d.

    This is the z = 0 case of F(ct; dx) F(dt; cz) = F(dt; cx) F(ct; dz) for
    the generating function F(t; x), so the right side is
    sum_m C(n,m) d^(n-m) c^m P_(n-m)(cx,y) P_m(0,y).  The left side is the
    re-expanded product F(ct; dx) F(dt; 0) (see _symmetry_left_side); the right
    side is the binomial convolution of the tables P(cx) and P(0), every entry
    pre-scaled by its scalar power, and it alone reads P(0).
    c and d must be nonzero ints or Fractions.  The product is symmetric for
    any core and any phi, so this checks only the exponential arguments and
    scalar powers: a fault in the core or in phi cannot show.
    """
    c, d = _symmetry_scalars(c, d)
    check_int("n_max", n_max, 0)
    return _convolution_verdict(
        IdentityId.SYMMETRY, spec, n_max, _symmetry_left_side(spec, c, d, n_max),
        _scaled(_stream(_tables, spec, n_max, exp_argument=MultiPoly.var(VarId.X) * c), d),
        _scaled(_stream(_tables, spec, n_max, exp_argument=MultiPoly.zero()), c),
    )


def _symmetry_left_side(spec: FamilySpec, c: Fraction, d: Fraction,
                        n_max: int) -> Iterator[MultiPoly]:
    """n! [t^n] F(ct; dx) F(dt; 0) for n = 0 .. n_max, one series product, each when read.

    F(t; a) = M(t) G(t; a), with M the cached phi-free core and
    G = e^(at) phi(y, t) the general series, so the product is
    [M(ct) M(dt)] * [G(ct; dx) G(dt; 0)]: the factor in La, Lb and the factor
    in x, y are each multiplied first, and the large product happens once,
    last, as a Cauchy sum whose members are read off with n! cancelled
    before their one normalization (PowerSeries.product_member).  The
    series product of the two and extract give the same members.
    """
    order = n_max + 1
    x, zero = MultiPoly.var(VarId.X), MultiPoly.zero()
    core = unified_series(spec.replace(phi=Unit()), order, exp_argument=zero)
    cores = _rescaled(core, c) * _rescaled(core, d)
    smalls = (_rescaled(general_series(spec.phi, order, exp_argument=x * d), c)
              * _rescaled(general_series(spec.phi, order, exp_argument=zero), d))
    for n in range(order):
        yield cores.product_member(smalls, n)


def _symmetry_scalars(c: Scalar, d: Scalar) -> tuple[Fraction, Fraction]:
    """c and d as Fractions, unless one is not a nonzero int or Fraction: then ValueError."""
    if not (is_exact_scalar(c) and is_exact_scalar(d)):
        raise ValueError(f"symmetry scalars must be ints or Fractions, got {c!r} and {d!r}")
    if c == 0 or d == 0:
        raise ValueError("symmetry scalars c and d must be nonzero")
    return Fraction(c), Fraction(d)


def verify_all(spec: FamilySpec, n_max: int, *, c: Scalar = AUXILIARY["c"],
               d: Scalar = AUXILIARY["d"], m_max: int | None = None) -> list[Verdict]:
    """Run every identity with the same auxiliary arguments, one verdict each.

    Bounds and scalars are checked first; then the two shared tables below
    are built once, keyed as _stream looks them up, and dropped on return.
    Only P(x) is built past n_max; double-index streams P(x+z) past it, and
    every other table, p included, is streamed by each reader.
    """
    args = _arguments(n_max, c, d, m_max)
    check_int("n_max", n_max, 0)
    total = n_max + check_int("m_max", args["m_max"], 0)
    _symmetry_scalars(c, d)
    x_plus_z = _x_plus_z()
    tables = {
        # P(x): series-def, shift, shift-one, and double-index's right side up to n_max + m_max
        (spec, None): unified_members(spec, total),
        # P(x+z): shift, shift-mixed, shift-general, and double-index's left side up to n_max
        (spec, x_plus_z): unified_members(spec, n_max, exp_argument=x_plus_z),
    }
    return [_run(identity, spec, args, tables) for identity in IdentityId]


def verify_identity(identity: IdentityId, spec: FamilySpec, n_max: int, *,
                    c: Scalar = AUXILIARY["c"], d: Scalar = AUXILIARY["d"],
                    m_max: int | None = None) -> Verdict:
    """Run one identity alone with verify_all's auxiliary parameters."""
    if not isinstance(identity, IdentityId):
        raise ValueError(f"identity must be an IdentityId, got {identity!r}")
    return _run(identity, spec, _arguments(n_max, c, d, m_max), {})


def _arguments(n_max: int, c: Scalar, d: Scalar, m_max: int | None) -> dict:
    return {"n_max": n_max, "c": c, "d": d, "m_max": n_max if m_max is None else m_max}


def _run(identity: IdentityId, spec: FamilySpec, args: dict, tables: Mapping) -> Verdict:
    return globals()[identity.verifier](spec, *(args[a] for a in identity.args), _tables=tables)


def _x_plus_z() -> MultiPoly:
    return MultiPoly.var(VarId.X) + MultiPoly.var(VarId.Z)


def _scaled(members: Iterable[MultiPoly], u: Fraction) -> Iterator[MultiPoly]:
    """Entry i times u^i, each when read."""
    return (p * u ** i for i, p in enumerate(members))


def _rescaled(series: PowerSeries, u: Fraction) -> PowerSeries:
    """The series at u*t: the coefficient of t^i times u^i."""
    return PowerSeries(list(_scaled(series.coeffs, u)))

