"""Construction of the unified Apostol-type polynomial families.

The central object is the two-variable family P_n(x, y) of order r defined
by the generating function

    sum_n P_n(x,y) t^n / n!  =  (-1)^r * 2^(r(1-k)) * t^(rk)
                                -----------------------------  *  e^(xt) * phi(y, t)
                                prod_{i<r} (alpha_i b^t - a^t)

parameterized by a positive integer order r, a non-negative integer k, two
bases a != b, a vector of r rational alphas, and a choice of phi.  Classical
families drop out for specific parameters:

    k=1, alpha=lambda,  (a,b)=(1,e)   ->  (-1)^r  * Apostol-Bernoulli order r
    k=0, alpha=-lambda, (a,b)=(1,e)   ->            Apostol-Euler order r
    k=1, alpha=-lambda, (a,b)=(1,e)   ->  2^(-r)  * Apostol-Genocchi order r

General positive a, b are handled symbolically: a^t expands as
exp(La * t) with La an indeterminate standing for log(a), so an identity
verified here holds for every real base, not just sampled ones.

A unit alpha makes the corresponding denominator factor vanish at t = 0.
That valuation is absorbed by the numerator's t^(rk), which is why the
Bernoulli-type (alpha = 1) cases exist at all; they are only admitted for
(a, b) = (1, e), where the vanishing factor e^t - 1 has the rational
leading coefficient 1.  For symbolic bases the leading coefficient would be
Lb - La, which is not invertible in a polynomial ring.  The core builds its
denominator one order deeper per unit alpha, so every series and table has
the order its caller asks for.

A table is named by a spec and an exponential argument, nothing else:
unified_members(spec, n, exp_argument=arg) reads the members of
core * (e^(arg t) * phi(y, t)), where arg defaults to x: the small factor
holds only x, y and z and is built first, so the large core enters one
product.  No product series is built: each member P_n is read off the
Cauchy sum of the two factors with n! cancelled against the sum's
denominator, so it is normalized once.  unified_members lists these
members from _members, a stream that builds each member when it is read,
and general_members lists a phi's p_n(x, y) from it; every table on either
side of an identity in identities reads the same stream.
unified_series(spec, order).extract(n) stays the public series route to
the same member, and the tests' reference.  A zero arg drops e^(xt), and
spec.replace(phi=Unit()) drops phi; both together give the number sequence
of the family, read off the core alone.  Both factors are
functools.lru_caches keyed on the order too: the core quotient on the
phi-free spec, so every such table of one spec shares it, and the small
factor on the argument's value and phi.  The small-factor cache also holds
the denominator's r+1 exponentials e^((j Lb + (r-j) La) t), with a unit
phi, which every spec with the same r and bases shares.
_core_quotient.cache_info() and _small_factor.cache_info() count the hits
and misses.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from operator import mul

from .polyring import MultiPoly, Record, Scalar, VarId, check_int, is_exact_scalar, sum_of_products
from .series import PowerSeries

__all__ = [
    "FamilySpec", "GouldHopper", "InvalidFamilySpecError", "Laguerre", "LogBase", "Phi",
    "PolyTable", "PRESETS", "TruncatedExp", "Unit", "ValuationExceedsNumeratorError",
    "denominator_series", "extract_table", "general_members", "general_series", "phi_label",
    "phi_series", "unified_members", "unified_series",
]


class InvalidFamilySpecError(ValueError):
    """The parameter bundle does not describe a constructible family."""


class ValuationExceedsNumeratorError(ValueError):
    """More unit alphas than powers of t in the numerator: the quotient has a pole."""


class LogBase(Enum):
    """A positive base for the exponentials in the denominator product.

    ONE and E are the two bases with rational logs (0 and 1).  The symbolic
    bases contribute the log-indeterminates La, Lb instead of numbers.
    """

    ONE = "1"
    E = "e"
    SYMBOLIC_A = "sym-a"
    SYMBOLIC_B = "sym-b"

    def log_poly(self) -> MultiPoly:
        if self is LogBase.ONE:
            return MultiPoly.zero()
        if self is LogBase.E:
            return MultiPoly.one()
        if self is LogBase.SYMBOLIC_A:
            return MultiPoly.var(VarId.LA)
        return MultiPoly.var(VarId.LB)


# -- phi choices -------------------------------------------------------------
#
# phi(y, t) selects which two-variable general polynomial family rides on
# top of the Apostol prefactor.  Every non-unit kind is a weighted power
# series sum_j w_j (y t^step)^j with w_0 = 1, so the general polynomials
# always start at p_0 = 1.

# kind -> (name of the step parameter, default step, weight w_j); unit has none.
PHI_KINDS = {
    "unit": (None, None, None),
    # exp(y t^m): Gould-Hopper polynomials; m = 2 is the Hermite case.
    "gould-hopper": ("m", 2, lambda j: Fraction(1, factorial(j))),
    # C0(-y t^m), with C0 the 0-th order Tricomi function sum (-1)^j u^j/(j!)^2.
    "laguerre": ("m", 1, lambda j: Fraction(1, factorial(j) ** 2)),
    # 1 / (1 - y t^beta): truncated exponential polynomials of order beta.
    "truncated-exp": ("beta", 2, lambda j: Fraction(1)),
}


class Phi(Record):
    """One phi(y, t): a kind from PHI_KINDS and its step (the power of t).

    An omitted step takes the kind's default; unit takes no step.
    """

    __slots__ = ("kind", "step")

    def __init__(self, kind: str, step: int | None = None):
        if kind not in PHI_KINDS:
            raise InvalidFamilySpecError(f"unknown phi kind: {kind!r}")
        param, default, _ = PHI_KINDS[kind]
        if param is None:
            if step is not None:
                raise InvalidFamilySpecError(f"phi {kind} takes no step, got {step}")
        elif step is None:
            step = default
        else:
            check_int(f"{kind} {param}", step, 1, InvalidFamilySpecError)
        super().__init__(kind, step)


# One constructor per kind, for callers that name the kind in code.


def Unit() -> Phi:
    return Phi("unit")


def GouldHopper(m: int | None = None) -> Phi:
    return Phi("gould-hopper", m)


def Laguerre(m: int | None = None) -> Phi:
    return Phi("laguerre", m)


def TruncatedExp(beta: int | None = None) -> Phi:
    return Phi("truncated-exp", beta)


def _checked_phi(phi: object) -> Phi:
    """phi itself if it is a Phi; InvalidFamilySpecError otherwise."""
    if not isinstance(phi, Phi):
        raise InvalidFamilySpecError(f"unknown phi kind: {phi!r}")
    return phi


def phi_series(phi: Phi, order: int) -> PowerSeries:
    """Expand the chosen phi(y, t) as a truncated series in t."""
    weight = PHI_KINDS[_checked_phi(phi).kind][2]
    if weight is None:
        return PowerSeries.one(order)
    y = MultiPoly.var(VarId.Y)
    coeffs = [MultiPoly.zero()] * check_int("order", order, 1)
    ypow = MultiPoly.one()
    for j, i in enumerate(range(0, order, phi.step)):  # w_j (y t^step)^j
        coeffs[i] = ypow * weight(j)
        ypow = ypow * y
    return PowerSeries(coeffs)


def phi_label(phi: Phi) -> str:
    param = PHI_KINDS[phi.kind][0]
    return phi.kind if param is None else f"{phi.kind}({param}={phi.step})"


# -- the parameter bundle -----------------------------------------------------


class FamilySpec(Record):
    """Everything that names one unified family: (r, k, a, b, alphas, phi); alphas is any iterable."""

    __slots__ = ("r", "k", "a", "b", "alphas", "phi")

    def __init__(self, r: int, k: int, a: LogBase, b: LogBase, alphas: tuple[Fraction, ...],
                 phi: Phi = Phi("unit")):
        alphas = tuple(alphas) if hasattr(alphas, "__iter__") else alphas
        check_int("r", r, 1, InvalidFamilySpecError)
        check_int("k", k, 0, InvalidFamilySpecError)
        if not (isinstance(a, LogBase) and isinstance(b, LogBase)):
            raise InvalidFamilySpecError(f"a and b must be LogBase, got {a!r} and {b!r}")
        if type(alphas) is not tuple or not all(map(is_exact_scalar, alphas)):
            raise InvalidFamilySpecError(f"alphas must be ints or Fractions, got {alphas!r}")
        alphas = tuple(a if type(a) is Fraction else Fraction(a) for a in alphas)
        if len(alphas) != r:
            raise InvalidFamilySpecError(f"need exactly r={r} alphas, got {len(alphas)}")
        if a is b:
            raise InvalidFamilySpecError("the bases a and b must differ")
        super().__init__(r, k, a, b, alphas, _checked_phi(phi))
        if self.unit_alpha_count and (a, b) != (LogBase.ONE, LogBase.E):
            raise InvalidFamilySpecError(
                "alpha = 1 (Bernoulli-type factor) is only supported for bases "
                "a=1, b=e; with other bases the vanishing factor has a "
                "non-rational leading coefficient"
            )

    @property
    def unit_alpha_count(self) -> int:
        return sum(1 for a in self.alphas if a == 1)

    def describe(self) -> str:
        alphas = ",".join(str(a) for a in self.alphas)
        return (
            f"r={self.r} k={self.k} a={self.a.value} b={self.b.value} "
            f"alphas=({alphas}) phi={phi_label(self.phi)}"
        )


PRESETS: dict[str, FamilySpec] = {
    # Classical specializations at lambda = 1 (bases 1, e; phi = 1).
    "euler": FamilySpec(1, 0, LogBase.ONE, LogBase.E, (Fraction(-1),)),
    "bernoulli": FamilySpec(1, 1, LogBase.ONE, LogBase.E, (Fraction(1),)),
    "genocchi": FamilySpec(1, 1, LogBase.ONE, LogBase.E, (Fraction(-1),)),
    # Euler-type prefactor with a nontrivial phi.
    "hermite": FamilySpec(1, 0, LogBase.ONE, LogBase.E, (Fraction(-1),), GouldHopper(2)),
    "gould-hopper": FamilySpec(1, 0, LogBase.ONE, LogBase.E, (Fraction(-1),), GouldHopper(3)),
    "laguerre": FamilySpec(1, 0, LogBase.ONE, LogBase.E, (Fraction(-1),), Laguerre(1)),
    "truncated-exp": FamilySpec(1, 0, LogBase.ONE, LogBase.E, (Fraction(-1),), TruncatedExp(2)),
}


# -- series construction -------------------------------------------------------


@lru_cache(maxsize=512, typed=True)
def _small_factor(arg: MultiPoly, phi: Phi, order: int) -> PowerSeries:
    """e^(arg t) * phi(y, t), keyed on the argument's value: x+z and z+x share one entry.

    A zero argument drops e^(arg t), and a unit phi drops phi.
    """
    factors = [PowerSeries.exp_linear(arg, order)] if arg else []
    if phi.kind != "unit":
        factors.append(phi_series(phi, order))
    return reduce(mul, factors) if factors else PowerSeries.one(order)


def denominator_series(spec: FamilySpec, order: int) -> PowerSeries:
    """The product prod_i (alpha_i b^t - a^t), truncated at the given order.

    It is a^(rt) prod_i (alpha_i (b/a)^t - 1), so with c_j the coefficient
    of z^j in prod_i (alpha_i z - 1) it is the sum of r+1 exponentials
    sum_j c_j e^((j Lb + (r-j) La) t).  Each exponential is a cached small
    factor, keyed on its argument alone, so every spec with the same r and
    bases shares them.  Each coefficient of the sum is one left-side-kernel
    call over the r+1 exponentials' coefficients, normalized once.
    """
    coeffs = [Fraction(1)]  # of prod_i (alpha_i z - 1), lowest power of z first
    for alpha in spec.alphas:  # times (alpha z - 1): c_j becomes alpha c_(j-1) - c_j
        coeffs = [alpha * below - c for c, below in zip([*coeffs, 0], [0, *coeffs])]
    la, lb = spec.a.log_poly(), spec.b.log_poly()
    one = MultiPoly.one()
    exps = [(c, _small_factor(lb * j + la * (spec.r - j), Unit(), order).coeffs)
            for j, c in enumerate(coeffs) if c]
    return PowerSeries([sum_of_products((c, e[i], one) for c, e in exps) for i in range(order)])


@lru_cache(maxsize=512, typed=True)
def _core_quotient(spec: FamilySpec, order: int) -> PowerSeries:
    """(-1)^r 2^(r(1-k)) t^(rk) over the denominator product, of the given order.

    Callers key it on the phi-free spec, so every exponential/phi variant of
    the same parameter core shares one cached entry per order.  The division
    loses one order per unit alpha, so the denominator is built that many
    orders deeper.  The numerator is a monomial, so no product is taken: the
    inverted, valuation-shifted denominator is shifted by t^(rk) less the
    valuation and scaled.
    """
    rk = spec.r * spec.k
    unit_count = spec.unit_alpha_count
    if unit_count > rk:
        raise ValuationExceedsNumeratorError(
            f"the denominator vanishes to order {unit_count} (one per unit alpha) "
            f"but the numerator only carries t^{rk}"
        )
    scalar = Fraction((-1) ** spec.r) * Fraction(2) ** (spec.r * (1 - spec.k))
    inverse = denominator_series(spec, order + unit_count)._shifted_inverse(unit_count).coeffs
    shift = min(rk - unit_count, order)
    return PowerSeries([MultiPoly.zero()] * shift + [c * scalar for c in inverse[:order - shift]])


def _exp_argument_poly(exp_argument: MultiPoly | Scalar | None) -> MultiPoly:
    """The exponential's argument as a ring element: x when omitted."""
    if exp_argument is None:
        return MultiPoly.var(VarId.X)
    return exp_argument if isinstance(exp_argument, MultiPoly) else MultiPoly.const(exp_argument)


def _factors(spec: FamilySpec, order: int,
             exp_argument: MultiPoly | Scalar | None) -> tuple[PowerSeries, PowerSeries | None]:
    """The cached core and small factor of a table; the small factor is None where it is 1."""
    arg = _exp_argument_poly(exp_argument)
    core = _core_quotient(spec.replace(phi=Unit()), order)
    if not arg and spec.phi.kind == "unit":
        return core, None
    return core, _small_factor(arg, spec.phi, order)


def unified_series(spec: FamilySpec, order: int, *,
                   exp_argument: MultiPoly | Scalar | None = None) -> PowerSeries:
    """The generating series core * (e^(arg t) * phi(y, t)), truncated at the order.

    The series has exactly the order asked for, unit alphas or not: the
    core absorbs the order its division loses.  exp_argument replaces the
    default x in the exponential (the identity verifiers pass x+z, c*x, z
    or x+1); it may be a polynomial or an exact scalar.  A zero argument
    drops e^(xt), and a spec whose phi is Unit() drops phi, so
    spec.replace(phi=Unit()) with a zero argument gives the family's
    numbers.  Both factors come from their caches.
    """
    core, small = _factors(spec, check_int("order", order, 1), exp_argument)
    return core if small is None else core * small


def unified_members(spec: FamilySpec, n_max: int, *,
                    exp_argument: MultiPoly | Scalar | None = None) -> list[MultiPoly]:
    """Family members P_0 .. P_n_max, read off the core * small-factor Cauchy sum.

    The table is named by the spec and exp_argument alone, as in
    unified_series, and both factors come from their caches at order
    n_max + 1, for every spec.  No series product is built: each member is
    one Cauchy sum with n! cancelled against its denominator before the
    single normalization (_members, the member stream it lists from 0).
    A table with neither e^(arg t) nor phi is the core's own members.
    unified_series(...).extract(n) is the same member by the public series
    route.
    """
    return list(_members(spec, 0, check_int("n_max", n_max, 0), exp_argument))


def _members(table: FamilySpec | Phi, n_min: int, n_max: int,
             exp_argument: MultiPoly | Scalar | None = None) -> Iterator[MultiPoly]:
    """Members n_min .. n_max of a spec's family table or a phi's general polynomials, when read.

    The one member loop, listed from 0 by unified_members and general_members
    and streamed by identities past any shared prefix.  A spec's factors come
    from _factors at order n_max + 1 (none for an empty range); a member is
    one product_member call, or the core's own member without e^(arg t) and
    phi.  A phi's p_n are read off the cached general_series by extract.
    """
    if n_min > n_max:
        return
    if isinstance(table, Phi):
        series, small = general_series(table, n_max + 1, exp_argument=exp_argument), None
    else:
        series, small = _factors(table, n_max + 1, exp_argument)
    for n in range(n_min, n_max + 1):
        yield series.extract(n) if small is None else series.product_member(small, n)


def general_series(phi: Phi, order: int, *,
                   exp_argument: MultiPoly | Scalar | None = None) -> PowerSeries:
    """e^(xt) phi(y,t), the cached small factor: the general polynomials, no prefactor."""
    return _small_factor(_exp_argument_poly(exp_argument), _checked_phi(phi),
                         check_int("order", order, 1))


def general_members(phi: Phi, n_max: int, *,
                    exp_argument: MultiPoly | Scalar | None = None) -> list[MultiPoly]:
    """The two-variable general polynomials p_0 .. p_n_max of the given phi, from _members."""
    check_int("n_max", n_max, 0)
    arg = _exp_argument_poly(exp_argument)  # checked before phi, as general_series checks
    return list(_members(_checked_phi(phi), 0, n_max, arg))


# -- tables ---------------------------------------------------------------------


class PolyTable(Record):
    """An ordered run of family members n = 0..n_max with provenance."""

    __slots__ = ("label", "entries", "spec")

    def __init__(self, label: str, entries: tuple[tuple[int, MultiPoly], ...],
                 spec: FamilySpec | None = None):
        for i, (n, _) in enumerate(entries):
            if n != i:
                raise ValueError(f"table entries must be contiguous from 0, found n={n} at slot {i}")
        super().__init__(label, entries, spec)

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def __iter__(self):
        return iter(self.entries)


def extract_table(spec: FamilySpec, n_max: int) -> PolyTable:
    """The table P_0(x,y) .. P_n_max(x,y) of the unified family."""
    entries = tuple(enumerate(unified_members(spec, n_max)))
    return PolyTable(label=f"unified({spec.describe()})", entries=entries, spec=spec)


class ClassicalFamily(Enum):
    """The classical Apostol families, built directly from their own generating functions."""

    APOSTOL_BERNOULLI = "apostol-bernoulli"
    APOSTOL_EULER = "apostol-euler"
    APOSTOL_GENOCCHI = "apostol-genocchi"


def special_case_oracle(which: ClassicalFamily, r: int, lam: Scalar,
                        n_max: int) -> PolyTable:
    """Apostol-Bernoulli/Euler/Genocchi polynomials of order r, twist lambda.

    Deliberately bypasses FamilySpec and the unified constructor: these
    tables come straight from the classical generating functions

        Bernoulli:  (t / (lam e^t - 1))^r e^(xt)
        Euler:      (2 / (lam e^t + 1))^r e^(xt)
        Genocchi:   (2t / (lam e^t + 1))^r e^(xt)

    Unexported: only the expand-deep benchmark's check calls it, and it goes
    once that check reads the tests' independent oracle instead.
    """
    if not isinstance(which, ClassicalFamily):
        raise ValueError(f"which must be a ClassicalFamily, got {which!r}")
    check_int("r", r, 1)
    if not is_exact_scalar(lam):
        raise ValueError(f"lambda must be an int or Fraction, got {lam!r}")
    check_int("n_max", n_max, 0)
    lam = Fraction(lam)
    if which is ClassicalFamily.APOSTOL_BERNOULLI:
        valuation, sign, t_shift, scalar = (r if lam == 1 else 0), Fraction(-1), r, Fraction(1)
    elif lam == -1:
        name = which.value.removeprefix("apostol-").capitalize()
        raise ValueError(f"lambda = -1 makes the {name} denominator vanish at t = 0")
    else:  # Euler and Genocchi share 2 / (lam e^t + 1); Genocchi's numerator carries t^r
        valuation, sign, scalar = 0, Fraction(1), Fraction(2) ** r
        t_shift = r if which is ClassicalFamily.APOSTOL_GENOCCHI else 0
    order = n_max + valuation + 1
    exp_t = PowerSeries.exp_linear(MultiPoly.one(), order)
    den_factor = exp_t.scale(lam) + PowerSeries.one(order).scale(sign)
    den = PowerSeries.one(order)
    for _ in range(r):
        den = den * den_factor
    num = PowerSeries.exp_linear(MultiPoly.var(VarId.X), order).scale(scalar)
    if t_shift:
        num = num * PowerSeries.t_power(t_shift, order)
    series = num.divide_with_valuation(den, valuation)
    entries = tuple((n, series.extract(n)) for n in range(n_max + 1))
    return PolyTable(
        label=f"{which.value}(r={r}, lambda={lam})",
        entries=entries,
    )
