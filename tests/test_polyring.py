"""The coefficient ring: canonical form, arithmetic, substitution, ordering."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from apostol.family import PRESETS, PolyTable
from apostol.identities import Counterexample, IdentityId, Verdict
from apostol.polyring import NVARS, MultiPoly, VarId, format_poly

from helpers import exps, random_poly, random_rational

X = MultiPoly.var(VarId.X)
Y = MultiPoly.var(VarId.Y)
LA = MultiPoly.var(VarId.LA)
LB = MultiPoly.var(VarId.LB)


def test_add_cancellation():
    assert (X + 1) + (-X + 2) == 3


def test_add_zero_identity():
    p = X * Y - Fraction(1, 2)
    assert p + MultiPoly.zero() == p


def test_add_merges_like_terms():
    assert X * Y + X * Y == 2 * X * Y


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_mul_one_identity():
    p = 3 * X * X - Y
    assert p * MultiPoly.one() == p


def test_mul_by_scalar():
    assert (X - Fraction(1, 2)) * 2 == 2 * X - 1


def test_substitute_constant_evaluation():
    p = X * X - X + Fraction(1, 6)
    assert p.substitute({VarId.X: 0}) == Fraction(1, 6)


def test_substitute_log_indeterminates():
    p = LA * X + LB
    assert p.substitute({VarId.LA: 0, VarId.LB: 1}) == 1


def test_substitute_empty_binding_is_identity():
    p = X * Y - 7
    assert p.substitute({}) == p


def test_substitute_binds_every_variable_at_once():
    Z = MultiPoly.var(VarId.Z)
    assert (X * X + Z).substitute({VarId.X: Z, VarId.Z: X}) == Z * Z + X
    assert (X * Y).substitute({VarId.X: Y, VarId.Y: X + 1}) == Y * X + Y


def test_substitute_rejects_a_key_that_is_no_variable():
    for bad in (NVARS, -1, "x", True, 1.0):
        with pytest.raises(ValueError, match="is not a valid VarId"):
            X.substitute({bad: 1})


def test_var_rejects_a_slot_that_is_no_variable():
    # Unchecked, -1 gave Lb, -NVARS gave x, True gave y, and NVARS and "x"
    # raised a bare IndexError and TypeError.
    for bad in (NVARS, -1, -NVARS, "x", True, False, 1.0, None):
        with pytest.raises(ValueError, match="is not a valid VarId"):
            MultiPoly.var(bad)
    assert [MultiPoly.var(int(v)) for v in VarId] == [MultiPoly.var(v) for v in VarId]
    assert MultiPoly.var(VarId.LB).terms == {exps(lb=1): 1}


def test_equality_is_canonical():
    assert (X + 1) * (X + 1) == X * X + 2 * X + 1
    assert X != Y
    assert MultiPoly.zero() == MultiPoly.const(0)
    assert (X - X) == MultiPoly.zero()


def test_equal_values_hash_equal():
    # A polynomial keys a cache by its value, however it was built; a constant
    # hashes as the int or Fraction it equals.
    z = MultiPoly.var(VarId.Z)
    half = Fraction(1, 2)
    groups = [[X + z, z + X], [(X + 1) * half, X * half + half],
              [2, Fraction(4, 2), MultiPoly.const(2)], [MultiPoly.zero(), 0]]
    for group in groups:
        assert all(p == group[0] and hash(p) == hash(group[0]) for p in group), group
        assert len(set(group)) == 1, group
    assert len(set().union(*groups)) == len(groups)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20240831)
    for _ in range(60):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == MultiPoly.zero()


def test_substitute_commutes_with_arithmetic():
    rng = random.Random(77)
    for _ in range(40):
        p = random_poly(rng, max_degree=3, max_terms=4)
        q = random_poly(rng, max_degree=3, max_terms=4)
        bindings = {
            v: random_rational(rng) if rng.random() < 0.5 else random_poly(rng, 2, 3)
            for v in VarId
            if rng.random() < 0.6
        }
        assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
        assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


def test_no_stored_zeros_or_bad_fractions():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(rng) * random_poly(rng) + random_poly(rng)
        for exps, coeff in p.terms.items():
            assert coeff != 0
            assert coeff.denominator > 0
            assert all(e >= 0 for e in exps)


def test_exponents_must_be_non_negative_ints():
    # Unchecked, True acted as exponent 1 and 1.0 failed with a bare TypeError.
    for bad in (-1, True, False, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="^exponent must be an int >= 0, got "):
            MultiPoly({exps(x=bad): 1})
    with pytest.raises(ValueError, match=f"^exponent vector must have {NVARS} entries"):
        MultiPoly({exps(x=1)[:-1]: 1})
    assert MultiPoly({exps(x=1): 1}) == X


def test_power():
    assert X ** 0 == MultiPoly.one()
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    assert (X - Y) ** 3 == X**3 - 3 * X**2 * Y + 3 * X * Y**2 - Y**3


def test_power_takes_only_non_negative_ints():
    # Unchecked, True would act as 1 and 2.0 would fail on a bitwise & in the loop.
    for bad in (True, False, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError, match="^polynomial powers must be ints"):
            X ** bad
    with pytest.raises(ValueError, match="negative polynomial powers"):
        X ** -1


def test_format_graded_lex_descending():
    p = X * X - X + Fraction(1, 6)
    assert format_poly(p) == "x^2 - x + 1/6"
    assert format_poly(MultiPoly.zero()) == "0"
    assert format_poly(X * X + 2 * Y) == "x^2 + 2*y"
    # same total degree: x before y before z in the canonical order
    assert format_poly(Y + X) == "x + y"
    assert format_poly(-X) == "-x"
    assert format_poly(7 * LB * LA - 3 * LA) == "7*La*Lb - 3*La"


def test_constant_value():
    assert MultiPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    assert MultiPoly.zero().constant_value() == 0
    assert X.constant_value() is None
    assert (X + 1).constant_value() is None


def test_inexact_scalars_raise_type_error():
    # Only ints (bools excluded) and Fractions enter the ring: a float would
    # store its binary fraction, a string would be parsed, True would be 1.
    for bad in (0.1, "2", True, None, 1j):
        with pytest.raises(TypeError):
            X * bad
        with pytest.raises(TypeError):
            bad * X
        with pytest.raises(TypeError):
            X + bad
        with pytest.raises(TypeError):
            MultiPoly({exps(x=1): bad})
        with pytest.raises(TypeError):
            MultiPoly.const(bad)
        with pytest.raises(TypeError):
            X.substitute({VarId.X: bad})
    assert X * 2 * Fraction(1, 2) == MultiPoly({exps(x=1): 1})


def test_equality_with_non_scalars_is_false():
    one = MultiPoly.one()
    assert one == 1 and one == Fraction(1)
    for other in (True, 1.0, 0.5, "1", None):
        assert (one == other) is False
        assert (one != other) is True
    assert (MultiPoly.zero() == False) is False  # noqa: E712


# One value of each Record type, with the fields whose assignment and deletion are
# checked ("extra" is no field); the verdict holds a spec and a counterexample.
RECORDS = [
    pytest.param(PRESETS["hermite"].phi, ["step"], id="Phi"),
    pytest.param(PRESETS["hermite"], ["r", "alphas", "extra"], id="FamilySpec"),
    pytest.param(PolyTable("t", ((0, MultiPoly.one()), (1, X))), ["entries"], id="PolyTable"),
    pytest.param(Counterexample((1,), X, X + 1), ["lhs"], id="Counterexample"),
    pytest.param(Verdict(IdentityId.SHIFT, PRESETS["euler"], 2, False,
                         Counterexample((1,), X, X + 1)),
                 ["passed", "counterexample", "extra"], id="Verdict"),
]


@pytest.mark.parametrize("record,fields", RECORDS)
def test_records_are_immutable_and_survive_copy_and_pickle(record, fields):
    missing = object()
    before = [getattr(record, field, missing) for field in fields]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field, missing) for field in fields] == before
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
