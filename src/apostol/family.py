"""Construction of the unified Apostol-type polynomial families.

The central object is the two-variable family P_n(x, y) of order r defined
by the generating function

    sum_n P_n(x,y) t^n / n!  =  (-1)^r * 2^(r(1-k)) * t^(rk)
                                -----------------------------  *  e^(xt) * phi(y, t)
                                prod_{i<r} (alpha_i b^t - a^t)

parameterized by a positive integer order r, a non-negative integer k, two
bases a != b, a vector of r rational alphas, and a choice of phi.  Setting
x = 0 and phi = 1 gives the number sequence of the family.  Classical
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
Lb - La, which is not invertible in a polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .polyring import MultiPoly, Scalar, VarId
from .series import PowerSeries


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


@dataclass(frozen=True)
class Phi:
    """One phi(y, t): a kind from PHI_KINDS and its step (the power of t).

    An omitted step takes the kind's default; unit takes no step.
    """

    kind: str
    step: int | None = None

    def __post_init__(self):
        if self.kind not in PHI_KINDS:
            raise InvalidFamilySpecError(f"unknown phi kind: {self.kind!r}")
        param, default, _ = PHI_KINDS[self.kind]
        if param is None:
            if self.step is not None:
                raise InvalidFamilySpecError(f"phi {self.kind} takes no step, got {self.step}")
        elif self.step is None:
            object.__setattr__(self, "step", default)
        elif self.step < 1:
            raise InvalidFamilySpecError(f"{self.kind} needs {param} >= 1, got {self.step}")


# One constructor per kind, for callers that name the kind in code.


def Unit() -> Phi:
    return Phi("unit")


def GouldHopper(m: int | None = None) -> Phi:
    return Phi("gould-hopper", m)


def Laguerre(m: int | None = None) -> Phi:
    return Phi("laguerre", m)


def TruncatedExp(beta: int | None = None) -> Phi:
    return Phi("truncated-exp", beta)


def phi_series(phi: Phi, order: int) -> PowerSeries:
    """Expand the chosen phi(y, t) as a truncated series in t."""
    if order < 1:
        raise ValueError("a power series needs order >= 1")
    weight = PHI_KINDS[phi.kind][2]
    if weight is None:
        return PowerSeries.one(order)
    y = MultiPoly.var(VarId.Y)
    coeffs = [MultiPoly.zero()] * order
    j = 0
    ypow = MultiPoly.one()
    while j * phi.step < order:
        coeffs[j * phi.step] = ypow * weight(j)
        ypow = ypow * y
        j += 1
    return PowerSeries(coeffs)


def phi_label(phi: Phi) -> str:
    param = PHI_KINDS[phi.kind][0]
    return phi.kind if param is None else f"{phi.kind}({param}={phi.step})"


# -- the parameter bundle -----------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Everything that names one unified family: (r, k, a, b, alphas, phi)."""

    r: int
    k: int
    a: LogBase
    b: LogBase
    alphas: tuple[Fraction, ...]
    phi: Phi = Phi("unit")

    def __post_init__(self):
        if self.r < 1:
            raise InvalidFamilySpecError(f"order r must be a positive integer, got {self.r}")
        if self.k < 0:
            raise InvalidFamilySpecError(f"k must be non-negative, got {self.k}")
        object.__setattr__(self, "alphas", tuple(Fraction(a) for a in self.alphas))
        if len(self.alphas) != self.r:
            raise InvalidFamilySpecError(
                f"need exactly r={self.r} alphas, got {len(self.alphas)}"
            )
        if self.a is self.b:
            raise InvalidFamilySpecError("the bases a and b must differ")
        if not isinstance(self.phi, Phi):
            raise InvalidFamilySpecError(f"unknown phi kind: {self.phi!r}")
        if self.unit_alpha_count and (self.a, self.b) != (LogBase.ONE, LogBase.E):
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


def _bases_product(alphas: tuple[Fraction, ...], a: LogBase, b: LogBase,
                   order: int) -> PowerSeries:
    bt = PowerSeries.exp_linear(b.log_poly(), order)
    at = PowerSeries.exp_linear(a.log_poly(), order)
    prod = PowerSeries.one(order)
    for alpha in alphas:
        prod = prod * (bt.scale(alpha) - at)
    return prod


def denominator_series(spec: FamilySpec, order: int) -> PowerSeries:
    """The product prod_i (alpha_i b^t - a^t), truncated at the given order."""
    if order < 1:
        raise ValueError("a power series needs order >= 1")
    return _bases_product(spec.alphas, spec.a, spec.b, order)


@lru_cache(maxsize=512)
def _core_quotient(alphas: tuple[Fraction, ...], a: LogBase, b: LogBase,
                   k: int, order: int) -> PowerSeries:
    """(-1)^r 2^(r(1-k)) t^(rk) over the denominator product.

    Shared by every exponential/phi variant of the same parameter core, so
    it is cached.  The result order is the requested order minus the number
    of unit alphas (the denominator valuation eaten by the division).
    """
    r = len(alphas)
    rk = r * k
    unit_count = sum(1 for x in alphas if x == 1)
    if unit_count > rk:
        raise ValuationExceedsNumeratorError(
            f"the denominator vanishes to order {unit_count} (one per unit alpha) "
            f"but the numerator only carries t^{rk}"
        )
    scalar = Fraction((-1) ** r) * Fraction(2) ** (r * (1 - k))
    num_coeffs = [MultiPoly.zero()] * order
    num_coeffs[rk] = MultiPoly.const(scalar)
    num = PowerSeries(num_coeffs)
    den = _bases_product(alphas, a, b, order)
    return num.divide_with_valuation(den, unit_count)


def unified_series(spec: FamilySpec, include_x: bool, order: int, *,
                   exp_argument: MultiPoly | None = None,
                   include_phi: bool = True) -> PowerSeries:
    """The generating series of the family, truncated.

    The order must be at least r*k + 1 so the numerator power of t is
    representable; the returned series has order reduced by the number of
    unit alphas.  exp_argument replaces the default variable x in the
    exponential factor (the identity verifiers pass x+z, c*x, or z);
    include_phi=False drops phi, which together with include_x=False yields
    the generating series of the family's numbers.
    """
    rk = spec.r * spec.k
    if order < rk + 1:
        raise ValueError(f"order must be at least r*k + 1 = {rk + 1}, got {order}")
    result = _core_quotient(spec.alphas, spec.a, spec.b, spec.k, order)
    if include_x:
        arg = exp_argument if exp_argument is not None else MultiPoly.var(VarId.X)
        result = result * PowerSeries.exp_linear(arg, order)
    if include_phi and spec.phi.kind != "unit":
        result = result * phi_series(spec.phi, order)
    return result


def unified_members(spec: FamilySpec, n_max: int, *, include_x: bool = True,
                    exp_argument: MultiPoly | None = None,
                    include_phi: bool = True) -> list[MultiPoly]:
    """Family members P_0 .. P_n_max, each read off as n! times [t^n].

    Expands internally at order n_max + r*k + 1 so that the valuation lost
    to unit alphas still leaves n_max + 1 valid coefficients.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    order = n_max + spec.r * spec.k + 1
    series = unified_series(spec, include_x, order,
                            exp_argument=exp_argument, include_phi=include_phi)
    return [series.extract(n) for n in range(n_max + 1)]


def general_series(phi: Phi, order: int, *,
                   exp_argument: MultiPoly | None = None) -> PowerSeries:
    """e^(xt) phi(y,t): the two-variable general polynomials, no prefactor."""
    arg = exp_argument if exp_argument is not None else MultiPoly.var(VarId.X)
    result = PowerSeries.exp_linear(arg, order)
    if phi.kind != "unit":
        result = result * phi_series(phi, order)
    return result


def general_members(phi: Phi, n_max: int, *,
                    exp_argument: MultiPoly | None = None) -> list[MultiPoly]:
    """The two-variable general polynomials p_0 .. p_n_max for the given phi."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    series = general_series(phi, n_max + 1, exp_argument=exp_argument)
    return [series.extract(n) for n in range(n_max + 1)]


# -- tables ---------------------------------------------------------------------


@dataclass(frozen=True)
class PolyTable:
    """An ordered run of family members n = 0..n_max with provenance."""

    label: str
    entries: tuple[tuple[int, MultiPoly], ...]
    spec: FamilySpec | None = None

    def __post_init__(self):
        for i, (n, _) in enumerate(self.entries):
            if n != i:
                raise ValueError(f"table entries must be contiguous from 0, found n={n} at slot {i}")

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def poly(self, n: int) -> MultiPoly:
        return self.entries[n][1]

    def __iter__(self):
        return iter(self.entries)


def extract_table(spec: FamilySpec, n_max: int) -> PolyTable:
    """The table P_0(x,y) .. P_n_max(x,y) of the unified family."""
    members = unified_members(spec, n_max)
    entries = tuple((n, p) for n, p in enumerate(members))
    return PolyTable(label=f"unified({spec.describe()})", entries=entries, spec=spec)


def gould_hopper_table(m: int, n_max: int) -> PolyTable:
    """The plain Gould-Hopper polynomials H_n(x, y) of order m (no prefactor)."""
    members = general_members(GouldHopper(m), n_max)
    entries = tuple((n, p) for n, p in enumerate(members))
    return PolyTable(label=f"gould-hopper(m={m})", entries=entries)


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

    and serve as the independent cross-check for the family reductions.
    """
    if r < 1:
        raise ValueError(f"order r must be a positive integer, got {r}")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    lam = Fraction(lam)
    if which is ClassicalFamily.APOSTOL_BERNOULLI:
        valuation = r if lam == 1 else 0
        sign = Fraction(-1)
        t_shift, scalar = r, Fraction(1)
    elif which is ClassicalFamily.APOSTOL_EULER:
        if lam == -1:
            raise ValueError("lambda = -1 makes the Euler denominator vanish at t = 0")
        valuation, sign = 0, Fraction(1)
        t_shift, scalar = 0, Fraction(2) ** r
    else:
        if lam == -1:
            raise ValueError("lambda = -1 makes the Genocchi denominator vanish at t = 0")
        valuation, sign = 0, Fraction(1)
        t_shift, scalar = r, Fraction(2) ** r
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
