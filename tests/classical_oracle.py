"""Classical oracle: the Apostol-Bernoulli, Euler and Genocchi polynomials.

Each family is transcribed from its generating function as one factor's
exponential generating function (EGF coefficients c_n of t^n / n!), raised
to the order r, with a scale and a power of t:

    Bernoulli  (t / (lam e^t - 1))^r e^(xt):  lam - [n = 0], t^r;  for lam = 1
               the t^r cancels (e^t - 1) / t, whose coefficients are 1 / (n+1);
    Euler      (2 / (lam e^t + 1))^r e^(xt):  lam + [n = 0], scale 2^r;
    Genocchi   (2t / (lam e^t + 1))^r e^(xt): lam + [n = 0], scale 2^r, t^r.

reference_oracle.solve_members solves each quotient on the reference ring,
so these tables share no code with apostol.  Every member is a RefPoly in x.
"""

from __future__ import annotations

from fractions import Fraction

from reference_oracle import ONE, solve_members
from reference_ring import ZERO_EXPS, RefPoly


def _factors(r: int, lam, sign: int, n_max: int) -> list[list[RefPoly]]:
    """r copies of the EGF coefficients of lam e^t + sign, which must not vanish at t = 0."""
    assert lam + sign != 0
    return [[ONE * (lam + sign if n == 0 else lam) for n in range(n_max + 1)]] * r


def apostol_bernoulli(r: int, lam, n_max: int) -> list[RefPoly]:
    """B_n^(r)(x; lam) from (t / (lam e^t - 1))^r e^(xt)."""
    if lam == 1:
        factors = [[ONE * Fraction(1, n + 1) for n in range(n_max + 1)]] * r
        return solve_members(Fraction(1), 0, factors, "unit", None, n_max)
    return solve_members(Fraction(1), r, _factors(r, lam, -1, n_max), "unit", None, n_max)


def apostol_euler(r: int, lam, n_max: int) -> list[RefPoly]:
    """E_n^(r)(x; lam) from (2 / (lam e^t + 1))^r e^(xt)."""
    return solve_members(Fraction(2) ** r, 0, _factors(r, lam, 1, n_max), "unit", None, n_max)


def apostol_genocchi(r: int, lam, n_max: int) -> list[RefPoly]:
    """G_n^(r)(x; lam) from (2t / (lam e^t + 1))^r e^(xt)."""
    return solve_members(Fraction(2) ** r, r, _factors(r, lam, 1, n_max), "unit", None, n_max)


def apostol_type(r: int, k: int, lam, phi_kind: str, step: int | None,
                 n_max: int) -> list[RefPoly]:
    """The members of (2^(1-k) t^k / (lam e^t + 1))^r e^(xt) phi(y, t).

    phi is read through reference_oracle.general_polynomial, as a kind and its step.
    """
    return solve_members(Fraction(2) ** (r * (1 - k)), r * k, _factors(r, lam, 1, n_max),
                         phi_kind, step, n_max)


def numbers(members: list[RefPoly]) -> list[Fraction]:
    """The members at x = 0: their constant terms."""
    return [p.terms.get(ZERO_EXPS, Fraction(0)) for p in members]
