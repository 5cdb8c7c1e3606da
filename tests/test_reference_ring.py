"""The packed, integer-numerator ring against the dict-of-Fraction reference.

Random polynomials include exponents near the packed field width and pairs
built to cancel.  Every result must equal the reference's and be in
canonical form: positive denominator, no zero numerators, and numerators
coprime to the denominator as a whole.
"""

from __future__ import annotations

import ast
import re
import sys
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apostol import polyring
from apostol.family import FamilySpec, GouldHopper, LogBase, unified_members
from apostol.polyring import (LATEX_SPELLING, MAX_DEGREE, NVARS, MultiPoly, VarId,
                              format_poly, json_terms, linear_combination, render_terms,
                              sum_of_products)
from apostol.series import PowerSeries

from helpers import exps
from reference_ring import ZERO_EXPS, RefPoly, format_ref, json_ref, latex_ref

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
    assert_agrees(p + c, rp + c)
    assert_agrees(c + p, rp + c)
    assert_agrees(p - c, rp - c)
    assert_agrees(c - p, -rp + c)


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
    assert format_poly(p) == format_ref(rp)
    # The JSON and LaTeX golden files hold no z, log a, log b or exponent >= 10; this does.
    assert json_terms(p) == json_ref(rp)
    assert render_terms([p], LATEX_SPELLING) == [latex_ref(rp)]
    assert p.constant_value() == rp.constant_value()


@PROPERTY
@given(st.lists(st.tuples(scalars, term_maps, term_maps), max_size=4),
       st.one_of(st.integers(1, 8).map(factorial), st.integers(1, 10**6)))
def test_sum_of_products(triples, times):
    # times is a member's n! as the series reader passes it, or any positive int.
    ref = RefPoly()
    for c, at, bt in triples:
        ra, rb = RefPoly(at), RefPoly(bt)
        if c and overflows(ra, rb):
            with pytest.raises(ValueError):
                sum_of_products([(c, MultiPoly(at), MultiPoly(bt))])
            return
        ref = ref + ra * rb * c
    assert_agrees(sum_of_products((c, MultiPoly(a), MultiPoly(b)) for c, a, b in triples), ref)
    assert_agrees(sum_of_products(((c, MultiPoly(a), MultiPoly(b)) for c, a, b in triples),
                                  times), ref * times)


def test_sum_of_products_takes_only_positive_int_multipliers():
    triple = (1, MultiPoly.var(VarId.X), MultiPoly.one())
    for bad in (0, -2, True, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match=re.escape(f"times must be an int >= 1, got {bad!r}")):
            sum_of_products([triple], bad)


@st.composite
def weighted_triples(draw):
    """(weight, a, b) triples with int, Fraction and zero weights; sometimes one
    whose b is a single monomial (a pure key shift, as in every double-index
    right side), and sometimes a last triple that cancels the sum of the
    others to zero."""
    triples = draw(st.lists(st.tuples(st.one_of(scalars, st.just(0)), term_maps, term_maps),
                            max_size=4))
    if draw(st.booleans()):
        triples.append((draw(scalars), draw(term_maps), {draw(exponents): 1}))
    if triples and draw(st.booleans()):
        c = draw(st.sampled_from([1, -2, Fraction(2, 3)]))
        ref = RefPoly()
        for w, at, bt in triples:
            ref = ref + RefPoly(at) * RefPoly(bt) * w
        if ref.total_degree() <= MAX_DEGREE:
            triples.append((c, (ref * (-1 / Fraction(c))).terms, {ZERO_EXPS: 1}))
    return triples


@PROPERTY
@given(weighted_triples())
def test_linear_combination(triples):
    ref = RefPoly()
    for c, at, bt in triples:
        ra, rb = RefPoly(at), RefPoly(bt)
        if c and overflows(ra, rb):
            # The whole sum raises, naming the largest total degree of any product.
            top = max(RefPoly(a).total_degree() + RefPoly(b).total_degree()
                      for w, a, b in triples if w and a and b)
            with pytest.raises(ValueError, match=f"^total degree {top} exceeds"):
                linear_combination((c, MultiPoly(a), MultiPoly(b)) for c, a, b in triples)
            return
        ref = ref + ra * rb * c
    assert_agrees(linear_combination((c, MultiPoly(a), MultiPoly(b)) for c, a, b in triples),
                  ref)


def test_linear_combination_edge_cases():
    x, y = MultiPoly.var(VarId.X), MultiPoly.var(VarId.Y)
    one, zero = MultiPoly.one(), MultiPoly.zero()
    assert_agrees(linear_combination([]), RefPoly())
    assert_agrees(linear_combination([(0, x, y), (5, zero, x), (5, x, zero)]), RefPoly())
    half_x = x * Fraction(1, 2)
    assert_agrees(linear_combination([(2, half_x, one), (-1, one, x)]), RefPoly())
    assert linear_combination([(Fraction(2, 3), half_x, y), (3, y, y)]) == (
        x * y * Fraction(1, 3) + 3 * y * y)
    # The x fields of x^40000 * x^30000 carry into the degree field; the error
    # names the true total degree, and raises although the two products cancel.
    big, small = MultiPoly({exps(x=40000): 1}), MultiPoly({exps(x=30000): 1})
    for triples in ([(1, big, small)], [(1, big, small), (-1, small, big)]):
        with pytest.raises(ValueError, match="^total degree 70000 exceeds"):
            linear_combination(triples)


def test_left_side_products_name_the_total_degree_that_overflows():
    # The left-side kernel checks the degree as linear_combination does, and
    # ring * and a series product reach that check through it.
    x = MultiPoly.var(VarId.X)
    big, small = MultiPoly({exps(x=40000): 1}), MultiPoly({exps(x=30000): 1})
    products = [lambda: big * small,
                lambda: sum_of_products([(1, big, small)]),
                lambda: sum_of_products([(1, big, small), (-1, small, big)]),
                lambda: PowerSeries([big, x]) * PowerSeries([small, x])]
    for product in products:
        with pytest.raises(ValueError, match="^total degree 70000 exceeds"):
            product()


def test_linear_combination_shares_no_product_loop_with_the_left_side(monkeypatch):
    """Right sides multiply inside linear_combination alone: with the left-side
    kernel sum_of_products and every ring * broken, a convolution and a
    double-index right side over sym/sym tables still equal the reference
    ring's sums."""
    spec = FamilySpec(2, 0, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B, (2, -3), GouldHopper(2))
    n = 5
    in_x = unified_members(spec, n)
    at_zero = unified_members(spec, n, exp_argument=MultiPoly.zero())
    h_powers = [MultiPoly({exps(z=s): 1}) for s in range(n + 1)]
    cases = [[(comb(n, j), in_x[n - j], at_zero[j]) for j in range(n + 1)],
             [(comb(n, s), in_x[n - s], h_powers[s]) for s in range(n + 1)]]

    def broken(*args):
        raise AssertionError("a right side used a left-side product loop")

    monkeypatch.setattr(polyring, "sum_of_products", broken)
    monkeypatch.setattr(MultiPoly, "__mul__", broken)
    monkeypatch.setattr(MultiPoly, "__rmul__", broken)
    for triples in cases:
        ref = RefPoly()
        for c, a, b in triples:
            ref = ref + RefPoly(a.terms) * RefPoly(b.terms) * c
        assert ref.terms
        assert_agrees(linear_combination(triples), ref)


def test_equality_ignores_construction_path():
    x = MultiPoly.var(VarId.X)
    assert x * Fraction(2, 3) * Fraction(3, 2) == x
    assert (x * Fraction(1, 2) + x * Fraction(1, 2))._den == 1
    assert MultiPoly({exps(x=1): Fraction(4, 6)}) == x * Fraction(2, 3)
    assert MultiPoly({exps(): 0}) == MultiPoly.zero() == 0


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
        MultiPoly({exps(x=MAX_DEGREE, y=1): 1})
    with pytest.raises(ValueError):
        MultiPoly({exps(z=MAX_DEGREE + 1): 1})
    with pytest.raises(ValueError):
        MultiPoly({exps(y=-1): 1})
    half = MultiPoly({exps(la=MAX_DEGREE // 2 + 1): 1})
    with pytest.raises(ValueError):
        half ** 2
    series = PowerSeries([MultiPoly.one(), half, MultiPoly.zero()])
    with pytest.raises(ValueError):
        series * series


def test_the_reference_stack_imports_only_the_standard_library_and_itself():
    # The oracles cross-check the package, so they must share none of its code:
    # not apostol, and not helpers, which imports it.
    stack = {"reference_ring", "reference_oracle", "classical_oracle"}
    for name in stack:
        tree = ast.parse((Path(__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top in stack, (name, module)
