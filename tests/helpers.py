"""Shared test utilities: seeded random ring elements and conversions."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

from apostol import family, identities, series
from apostol.polyring import NVARS, MultiPoly, VarId
from apostol.series import PowerSeries


def exps(**powers: int) -> tuple[int, ...]:
    """An exponent vector from powers keyed by lower-case VarId name, e.g. exps(x=1, la=2)."""
    e = [0] * NVARS
    for name, power in powers.items():
        e[VarId[name.upper()]] = power
    return tuple(e)


@contextmanager
def cold_factor_caches():
    """Clear the core and small-factor caches before and after the block.

    A test that patches a builder below the caches runs in it: no warm entry
    hides the fault, and no faulty entry outlives the test.
    """
    caches = (family._core_quotient, family._small_factor)
    for cache in caches:
        cache.cache_clear()
    try:
        yield
    finally:
        for cache in caches:
            cache.cache_clear()


def drop_last_left_side_triple(monkeypatch):
    """Patch the left-side kernel, as the series products call it, to drop the last of 3+ triples.

    A Cauchy product first sums three triples at t^2 (an inversion at t^3).
    """
    kernel = series.sum_of_products

    def dropping_last(triples, *times):
        triples = list(triples)
        return kernel(triples[:-1] if len(triples) >= 3 else triples, *times)

    monkeypatch.setattr(series, "sum_of_products", dropping_last)


def drop_last_right_side_triple(monkeypatch, calls=None):
    """Patch the right-side kernel, as identities calls it, to drop its last triple.

    calls, when given, gets one entry per call.
    """
    kernel = identities.linear_combination

    def dropping_last(triples):
        if calls is not None:
            calls.append(1)
        return kernel(list(triples)[:-1])

    monkeypatch.setattr(identities, "linear_combination", dropping_last)


def random_rational(rng: random.Random, max_abs: int = 5) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))


def random_poly(rng: random.Random, max_degree: int = 4, max_terms: int = 6,
                variables: tuple[VarId, ...] = tuple(VarId)) -> MultiPoly:
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * NVARS
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.choice(variables)] += 1
        p = p + MultiPoly({tuple(exps): random_rational(rng)})
    return p


def random_series(rng: random.Random, order: int, **poly_kwargs) -> PowerSeries:
    return PowerSeries([random_poly(rng, **poly_kwargs) for _ in range(order)])


def random_invertible_series(rng: random.Random, order: int) -> PowerSeries:
    head = Fraction(0)
    while head == 0:
        head = random_rational(rng)
    coeffs = [MultiPoly.const(head)]
    coeffs += [random_poly(rng, max_degree=2, max_terms=3) for _ in range(order - 1)]
    return PowerSeries(coeffs)


def xpoly_to_multipoly(p) -> MultiPoly:
    """Lift the oracle's univariate x-polynomial into the ring."""
    out = MultiPoly.zero()
    for i, c in enumerate(p):
        if c:
            out = out + MultiPoly({exps(x=i): c})
    return out
