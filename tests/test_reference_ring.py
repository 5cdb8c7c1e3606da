"""The packed, integer-numerator ring against the dict-of-Fraction reference.

Random polynomials include exponents near the packed field width and pairs
built to cancel.  Every result must equal the reference's and be in
canonical form: positive denominator, no zero numerators, and numerators
coprime to the denominator as a whole.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from apostol.cli import poly_to_latex
from apostol.polyring import (MAX_DEGREE, NVARS, MultiPoly, VarId, format_poly,
                              linear_combination, sum_of_products)
from apostol.series import PowerSeries

from reference_ring import RefPoly, format_ref, latex_ref

PROPERTY = settings(max_examples=60, deadline=None, database=None)

small_exps = st.tuples(*[st.integers(0, 3)] * NVARS)


@st.composite
def wide_exps(draw):
    """One exponent near half or all of the field width, the rest small."""
    exps = list(draw(small_exps))
    v = draw(st.integers(0, NVARS - 1))
    wide = draw(st.sampled_from([MAX_DEGREE // 2 - 1, MAX_DEGREE // 2, MAX_DEGREE // 2 + 1,
                                 MAX_DEGREE - 1, MAX_DEGREE]))
    exps[v] = 0
    exps[v] = min(wide, MAX_DEGREE - sum(exps))
    return tuple(exps)


exponents = st.one_of(small_exps, small_exps, wide_exps())
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.one_of(st.integers(-6, 6), coeffs)
term_maps = st.dictionaries(exponents, coeffs, max_size=5)


@st.composite
def cancelling_pairs(draw):
    """(p, q) where q negates some of p's terms, so p + q cancels them."""
    p = draw(term_maps)
    keep = draw(st.lists(st.sampled_from(sorted(p)), unique=True)) if p else []
    q = draw(term_maps)
    q.update({e: -p[e] for e in keep})
    return p, q


def both(terms) -> tuple[MultiPoly, RefPoly]:
    return MultiPoly(terms), RefPoly(terms)


def assert_canonical(p: MultiPoly) -> None:
    nums, den = p._nums, p._den
    assert den > 0
    assert 0 not in nums.values()
    assert gcd(den, *nums.values()) == 1
    if not nums:
        assert den == 1


def assert_agrees(p: MultiPoly, ref: RefPoly) -> None:
    assert p.terms == ref.terms
    assert_canonical(p)


def overflows(*refs: RefPoly) -> bool:
    return all(r.terms for r in refs) and sum(r.total_degree() for r in refs) > MAX_DEGREE


@PROPERTY
@given(cancelling_pairs())
def test_add_sub_neg_and_cancellation(pair):
    (p, rp), (q, rq) = both(pair[0]), both(pair[1])
    assert_agrees(p + q, rp + rq)
    assert_agrees(p - q, rp - rq)
    assert_agrees(-p, -rp)
    assert_agrees(p + q - p, rq)
    assert_agrees(p - p, RefPoly())
    assert p + q == q + p


@PROPERTY
@given(term_maps, term_maps)
def test_mul_or_overflow(pt, qt):
    (p, rp), (q, rq) = both(pt), both(qt)
    if overflows(rp, rq):
        with pytest.raises(ValueError):
            p * q
    else:
        assert_agrees(p * q, rp * rq)
        assert p * q == q * p


@PROPERTY
@given(term_maps, st.integers(0, 3))
def test_pow_or_overflow(pt, n):
    p, rp = both(pt)
    if n and rp.terms and rp.total_degree() * n > MAX_DEGREE:
        with pytest.raises(ValueError):
            p ** n
    else:
        assert_agrees(p ** n, rp ** n)


@PROPERTY
@given(term_maps, scalars)
def test_scalar_mul(pt, c):
    p, rp = both(pt)
    assert_agrees(p * c, rp * c)
    assert_agrees(c * p, rp * c)
    assert p * c == p * MultiPoly.const(c)


def lifted(bindings, ring):
    """The bindings with each term-map value made a polynomial of ring."""
    return {v: ring(b) if isinstance(b, dict) else b for v, b in bindings.items()}


@PROPERTY
@given(st.dictionaries(small_exps, coeffs, max_size=5),
       st.dictionaries(st.sampled_from(list(VarId)),
                       st.one_of(scalars, st.dictionaries(small_exps, coeffs, max_size=2))))
def test_substitute(pt, bindings):
    """Scalar and polynomial values, bound together, against the reference."""
    p, rp = both(pt)
    assert_agrees(p.substitute(lifted(bindings, MultiPoly)),
                  rp.substitute(lifted(bindings, RefPoly)))


@PROPERTY
@given(term_maps)
def test_ordering_rendering_and_constants(pt):
    p, rp = both(pt)
    assert [(e, Fraction(n, d)) for e, n, d in p.reduced_terms()] == rp.sorted_terms()
    assert format_poly(p) == format_ref(rp)
    # The LaTeX golden files hold no z, log a, log b or exponent >= 10; this does.
    assert poly_to_latex(p) == latex_ref(rp)
    assert p.constant_value() == rp.constant_value()


@PROPERTY
@given(st.lists(st.tuples(scalars, term_maps, term_maps), max_size=4))
def test_sum_of_products(triples):
    ref = RefPoly()
    for c, at, bt in triples:
        ra, rb = RefPoly(at), RefPoly(bt)
        if c and overflows(ra, rb):
            with pytest.raises(ValueError):
                sum_of_products([(c, MultiPoly(at), MultiPoly(bt))])
            return
        ref = ref + ra * rb * c
    assert_agrees(sum_of_products((c, MultiPoly(a), MultiPoly(b)) for c, a, b in triples), ref)


@st.composite
def weighted_maps(draw):
    """(weight, terms) pairs with int, Fraction and zero weights; sometimes a
    last pair is added that cancels the sum of the others to zero."""
    pairs = draw(st.lists(st.tuples(st.one_of(scalars, st.just(0)), term_maps), max_size=4))
    if pairs and draw(st.booleans()):
        c = draw(st.sampled_from([1, -2, Fraction(2, 3)]))
        ref = RefPoly()
        for w, terms in pairs:
            ref = ref + RefPoly(terms) * w
        pairs.append((c, (ref * (-1 / Fraction(c))).terms))
    return pairs


@PROPERTY
@given(weighted_maps())
def test_linear_combination(pairs):
    ref = RefPoly()
    for c, terms in pairs:
        ref = ref + RefPoly(terms) * c
    assert_agrees(linear_combination((c, MultiPoly(t)) for c, t in pairs), ref)


def test_linear_combination_edge_cases():
    x, y = MultiPoly.var(VarId.X), MultiPoly.var(VarId.Y)
    assert_agrees(linear_combination([]), RefPoly())
    assert_agrees(linear_combination([(0, x), (5, MultiPoly.zero())]), RefPoly())
    half_x = x * Fraction(1, 2)
    assert_agrees(linear_combination([(2, half_x), (-1, x)]), RefPoly())
    assert linear_combination([(Fraction(2, 3), half_x), (3, y)]) == x * Fraction(1, 3) + 3 * y


def test_equality_ignores_construction_path():
    x = MultiPoly.var(VarId.X)
    assert x * Fraction(2, 3) * Fraction(3, 2) == x
    assert (x * Fraction(1, 2) + x * Fraction(1, 2))._den == 1
    assert MultiPoly({(1, 0, 0, 0, 0): Fraction(4, 6)}) == x * Fraction(2, 3)
    assert MultiPoly({(0, 0, 0, 0, 0): 0}) == MultiPoly.zero() == 0


@pytest.mark.parametrize("v", list(VarId))
def test_exponent_field_never_carries(v):
    top = [0] * NVARS
    top[v] = MAX_DEGREE
    below = list(top)
    below[v] = MAX_DEGREE - 1
    product = MultiPoly({tuple(below): 1}) * MultiPoly.var(v)
    assert product.terms == {tuple(top): 1}
    with pytest.raises(ValueError):
        MultiPoly({tuple(top): 1}) * MultiPoly.var(v)
    with pytest.raises(ValueError):
        MultiPoly({tuple(top): 1}) * MultiPoly.var(VarId((v + 1) % NVARS))


def test_overflowing_exponents_raise():
    with pytest.raises(ValueError):
        MultiPoly({(MAX_DEGREE, 1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(0, 0, MAX_DEGREE + 1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(0, -1, 0, 0, 0): 1})
    half = MultiPoly({(0, 0, 0, MAX_DEGREE // 2 + 1, 0): 1})
    with pytest.raises(ValueError):
        half ** 2
    series = PowerSeries([MultiPoly.one(), half, MultiPoly.zero()])
    with pytest.raises(ValueError):
        series * series
