"""Reference oracle: members of the unified family, solved from its generating function.

It shares no code with apostol: it reads only the reference ring, and it
spells each phi's weights itself.  Every series here is an exponential
generating function (EGF), a list of coefficients c_n of t^n / n!, so a
product of two is a binomial convolution.  With s = (-1)^r 2^(r(1-k)),

    sum_n P_n t^n / n!  =  s t^(rk) / prod_i (alpha_i b^t - a^t)  *  e^(xt) phi(y, t).

Each factor alpha b^t - a^t has the EGF coefficients alpha Lb^n - La^n,
with Lb = log b and La = log a.  A unit alpha, admitted only on (1, e), has
the factor e^t - 1 = t sum_n t^n / (n+1)!, so it contributes t and the EGF
coefficients 1 / (n+1).  With D the product of the factors, t taken out,
the core's EGF Q solves the triangular system

    sum_j C(n, j) D_j Q_(n-j) = s [n = 0],

whose diagonal D_0 = prod (alpha_i - 1) over the non-unit alphas is a
nonzero rational (the determinantal route to Appell sequences of Costabile
and Longo, J. Comput. Appl. Math. 234, 2010).  The core is t^v Q(t) with
v = rk - (unit count), whose EGF coefficients are M_n = n!/(n-v)! Q_(n-v).
The general polynomials are p_n = n! [t^n] e^(xt) phi(y, t), and
P_n = sum_j C(n, j) M_j p_(n-j).  solve_members does the product, the
solve, the shift and the convolution for any scale, power of t and factors;
classical_oracle calls it too.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from reference_ring import ZERO_EXPS, RefPoly

ONE = RefPoly({ZERO_EXPS: 1})
X, Y = RefPoly({(1, 0, 0, 0, 0): 1}), RefPoly({(0, 1, 0, 0, 0): 1})
# phi kind -> the weight w_j of (y t^step)^j in phi(y, t) = sum_j w_j (y t^step)^j.
WEIGHTS = {
    "gould-hopper": lambda j: Fraction(1, factorial(j)),  # exp(y t^m)
    "laguerre": lambda j: Fraction(1, factorial(j) ** 2),  # C0(-y t^m), Tricomi
    "truncated-exp": lambda j: Fraction(1),  # 1 / (1 - y t^beta)
}


def egf_product(a: list[RefPoly], b: list[RefPoly]) -> list[RefPoly]:
    """The EGF coefficients of the product of two EGFs, as many as the shorter has."""
    return [sum((a[j] * b[n - j] * comb(n, j) for j in range(n + 1)), RefPoly())
            for n in range(min(len(a), len(b)))]


def general_polynomial(kind: str, step: int | None, n: int) -> RefPoly:
    """p_n(x, y) = n! [t^n] e^(xt) phi(y, t) = sum_j n!/(n - step j)! w_j x^(n - step j) y^j."""
    if kind == "unit":
        return X ** n
    return sum((X ** (n - step * j) * Y ** j
                * (WEIGHTS[kind](j) * Fraction(factorial(n), factorial(n - step * j)))
                for j in range(n // step + 1)), RefPoly())


def solve_members(scale: Fraction, shift: int, factors: list[list[RefPoly]], phi_kind: str,
                  step: int | None, n_max: int) -> list[RefPoly]:
    """P_0 .. P_n_max of scale t^shift / prod(factors) * e^(xt) phi(y, t).

    Each factor is given by its EGF coefficients to n_max, and the product's
    constant term must be a nonzero rational.
    """
    order = n_max + 1
    d = [ONE] + [RefPoly()] * n_max
    for factor in factors:
        d = egf_product(d, factor)
    q = []
    for n in range(order):
        rest = sum((d[j] * q[n - j] * comb(n, j) for j in range(1, n + 1)), RefPoly())
        q.append(((ONE * scale if n == 0 else RefPoly()) - rest) * (1 / d[0].constant_value()))
    m = [q[n - shift] * Fraction(factorial(n), factorial(n - shift)) if n >= shift else RefPoly()
         for n in range(order)]
    return egf_product(m, [general_polynomial(phi_kind, step, n) for n in range(order)])


def reference_members(k: int, alphas: tuple[Fraction, ...], log_a: RefPoly, log_b: RefPoly,
                      phi_kind: str, step: int | None, n_max: int) -> list[RefPoly]:
    """P_0 .. P_n_max of order r = len(alphas); log_a, log_b are 0 and 1 for the bases (1, e)."""
    r = len(alphas)
    units = sum(1 for alpha in alphas if alpha == 1)
    assert r * k >= units, "more unit alphas than powers of t: the quotient has a pole"
    assert not units or (log_a.terms, log_b.terms) == ({}, {ZERO_EXPS: 1}), "unit alpha off (1, e)"
    factors = [[ONE * Fraction(1, n + 1) if alpha == 1 else log_b ** n * alpha - log_a ** n
                for n in range(n_max + 1)] for alpha in alphas]
    s = Fraction((-1) ** r) * Fraction(2) ** (r * (1 - k))
    return solve_members(s, r * k - units, factors, phi_kind, step, n_max)
