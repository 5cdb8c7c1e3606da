"""Sparse multivariate polynomial arithmetic over exact rationals.

This is the coefficient ring for all series work in the package.  Its
variables are a fixed, closed set, each listed once in VarId with its
exponent slot and its plain, JSON and LaTeX names: x and y, the two
polynomial variables of the families; z, an auxiliary shift variable used by
the identity verifiers; and La, Lb, symbolic log-indeterminates for log(a)
and log(b), so that a**t and b**t expand exactly as exp(La*t), exp(Lb*t).

Representation.  A polynomial stores integer numerators over one positive
common denominator.  Each monomial's exponent vector (one non-negative
integer per variable, in VarId order) is packed into a single int key, laid
out once by _KEY: NVARS + 1 big-endian FIELD_BITS-wide fields, the total
degree first.  A monomial product is then one integer add, and integer order
on keys is graded-lexicographic order on monomials (packed exponent vectors,
after Monagan & Pearce, CASC 2007).  A field can only overflow if the total
degree does, so products check the degree alone and raise ValueError beyond
MAX_DEGREE.

Two kernels multiply numerator maps and share no code: sum_of_products (ring
*, every series product, so every identity's left side) and
linear_combination (substitute and every identity's right side).  Ring ** is
a running product of *.

Every value is kept in canonical form: no zero numerators, and
gcd(den, *numerators) == 1, with den == 1 for the zero polynomial (the empty
mapping).  Two polynomials are therefore equal exactly when their numerator
maps and denominators are equal; there is no normalization step to forget.
The hash reads the same two, so a polynomial can key a dict or a cache.
Fractions are built only at the edges (terms and constant_value).
This module is the one place that spells terms.  One walk, _reduced_terms,
gives a polynomial's terms in graded-lex order (descending packed keys) with
each coefficient reduced by one gcd; render_terms (a run of polynomials as
text, in PLAIN_SPELLING or LATEX_SPELLING) and json_terms (one polynomial as
JSON objects) both read it.

Scalars are exact: every coefficient and scalar operand must be an int or a
Fraction (is_exact_scalar), and substitute sends each bound variable to such
a scalar or to a polynomial.  Anything else, including bools, floats and
strings, raises TypeError, so no binary fraction can enter the ring.
Integers are exact too: every exponent, order, index and family parameter
passes check_int, an int (bools excluded) at or above a stated minimum, and
anything else raises ValueError or the error type the caller names.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import attrgetter, mul
from struct import Struct

__all__ = ["MultiPoly", "VarId", "format_poly"]

Scalar = int | Fraction


class VarId(IntEnum):
    """The ring variables: each member is its exponent slot and its plain, JSON and LaTeX names."""

    X = 0, "x", "x", "x"
    Y = 1, "y", "y", "y"
    Z = 2, "z", "z", "z"
    LA = 3, "La", "la", r"\log a"
    LB = 4, "Lb", "lb", r"\log b"

    def __new__(cls, slot: int, plain: str, json_key: str, latex: str):
        member = int.__new__(cls, slot)
        member._value_, member.plain, member.json_key, member.latex = slot, plain, json_key, latex
        return member


NVARS = len(VarId)

# The two text spellings of render_terms, each (variable names, product
# separator, exponent (open, close), fraction (open, middle, close)).
PLAIN_SPELLING = (tuple(v.plain for v in VarId), "*", ("^", ""), ("", "/", ""))
LATEX_SPELLING = (tuple(v.latex for v in VarId), " ", ("^{", "}"), (r"\frac{", "}{", "}"))

_JSON_KEYS = tuple(v.json_key for v in VarId)

Exponents = tuple[int, ...]

_KEY = Struct(f">{NVARS + 1}H")  # a key's bytes: the total degree, then each exponent, 16 bits each
FIELD_BITS = 8 * _KEY.size // (NVARS + 1)
MAX_DEGREE = (1 << FIELD_BITS) - 1
_DEG_SHIFT = NVARS * FIELD_BITS
# Keys at or above this have a total degree beyond MAX_DEGREE.
_KEY_LIMIT = 1 << (8 * _KEY.size)

# Bit offset of each variable's field in a key laid out by _KEY, indexed by VarId.
_SHIFTS = tuple((NVARS - 1 - v) * FIELD_BITS for v in VarId)


def _pack(exps: Iterable[int]) -> int:
    """The packed key of an exponent vector; ValueError if it cannot be one."""
    e = tuple(exps)
    if len(e) != NVARS:
        raise ValueError(f"exponent vector must have {NVARS} entries, got {e}")
    deg = sum(check_int("exponent", x, 0) for x in e)
    if deg > MAX_DEGREE:
        raise ValueError(f"total degree {deg} exceeds the ring's limit {MAX_DEGREE}")
    return int.from_bytes(_KEY.pack(deg, *e), "big")


def _unpack(key: int) -> Exponents:
    """The exponent vector of a packed key."""
    return _KEY.unpack(key.to_bytes(_KEY.size, "big"))[1:]


def is_exact_scalar(c: object) -> bool:
    """Whether c is a ring scalar: an int that is not a bool, or a Fraction."""
    return type(c) is int or isinstance(c, Fraction)


def check_int(name: str, value: object, minimum: int,
              error: type[Exception] = ValueError) -> int:
    """value itself if it is an int >= minimum (bools excluded); error otherwise."""
    if type(value) is not int or value < minimum:
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def _variable(v: object) -> VarId:
    """The ring variable v names, a VarId or its int slot; ValueError otherwise, bools too."""
    if type(v) is bool or not isinstance(v, int):
        raise ValueError(f"{v!r} is not a valid VarId")
    return VarId(v)


class Record:
    """An immutable value whose fields are its __slots__, set once in __init__.

    Equality, hash and repr read the fields in slot order; copy, pickle and
    replace(**changes) rebuild a value through __init__, so each is validated.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))  # a tuple: every record has 2+ fields

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._fields == other._fields if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._fields

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self.__slots__, self._fields)), **changes})


def _scalar_parts(c: Scalar) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction; TypeError otherwise."""
    if type(c) is int:  # ring * passes the constant 1 here on every product
        return c, 1
    if not isinstance(c, Fraction):
        raise TypeError(f"ring scalars must be ints or Fractions, got {c!r}")
    return c.numerator, c.denominator


class MultiPoly:
    """An immutable sparse polynomial in the ring of VarId's variables.

    Never mutate the numerator map of an existing value; every operation
    returns a fresh polynomial in canonical form.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        parts = {}
        for exps, coeff in (terms or {}).items():
            num, den = _scalar_parts(coeff)
            if num:
                parts[_pack(exps)] = num, den
        # Over the lcm of reduced denominators the numerators share no factor with it.
        self._den = lcm(*(den for _, den in parts.values()))
        self._nums = {k: num * (self._den // den) for k, (num, den) in parts.items()}

    # -- internal constructors ---------------------------------------------

    @staticmethod
    def _raw(nums: dict[int, int], den: int) -> MultiPoly:
        """Wrap a map and denominator that are already in canonical form."""
        p = MultiPoly.__new__(MultiPoly)
        p._nums = nums
        p._den = den
        return p

    @staticmethod
    def _normalized(acc: dict[int, int], den: int) -> MultiPoly:
        """Canonical form of acc / den: drop zeros, divide out the common gcd.

        acc must be a fresh map; it becomes the result's numerator map.
        """
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return MultiPoly._raw({}, 1)
        if den != 1:
            g = gcd(den, *acc.values())
            if g != 1:
                acc = {k: v // g for k, v in acc.items()}
                den //= g
        return MultiPoly._raw(acc, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> MultiPoly:
        return cls._raw({0: 1}, 1)

    @classmethod
    def const(cls, value: Scalar) -> MultiPoly:
        num, den = _scalar_parts(value)
        return cls._raw({0: num}, den) if num else cls._raw({}, 1)

    @classmethod
    def var(cls, v: VarId) -> MultiPoly:
        return cls._raw({(1 << _DEG_SHIFT) | (1 << _SHIFTS[_variable(v)]): 1}, 1)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """A fresh map from exponent vectors to nonzero Fraction coefficients."""
        den = self._den
        return {_unpack(k): Fraction(v, den) for k, v in self._nums.items()}

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if any variable occurs."""
        if not self._nums:
            return Fraction(0)
        if len(self._nums) == 1 and 0 in self._nums:
            return Fraction(self._nums[0], self._den)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: MultiPoly | Scalar) -> MultiPoly:
        q = other if isinstance(other, MultiPoly) else MultiPoly.const(other)
        if not self._nums:
            return q
        if not q._nums:
            return self
        g = gcd(self._den, q._den)
        fa, fb = q._den // g, self._den // g
        out = dict(self._nums) if fa == 1 else {k: v * fa for k, v in self._nums.items()}
        get = out.get
        for k, v in q._nums.items():
            out[k] = get(k, 0) + v * fb
        return MultiPoly._normalized(out, self._den * fa)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._raw({k: -v for k, v in self._nums.items()}, self._den)

    def __sub__(self, other: MultiPoly | Scalar) -> MultiPoly:
        q = other if isinstance(other, MultiPoly) else MultiPoly.const(other)
        return self + (-q)

    def __rsub__(self, other: Scalar) -> MultiPoly:
        return MultiPoly.const(other) + (-self)

    def __mul__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return self._scaled(*_scalar_parts(other))
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> MultiPoly:
        """self * p/q for a reduced p/q with q > 0."""
        if not p or not self._nums:
            return MultiPoly._raw({}, 1)
        g = gcd(p, self._den)
        p //= g
        den = self._den // g
        nums = self._nums if p == 1 else {k: v * p for k, v in self._nums.items()}
        if q != 1:
            g = gcd(q, *nums.values())
            if g != 1:
                q //= g
                nums = {k: v // g for k, v in nums.items()}
        return MultiPoly._raw(nums, den * q)

    def __pow__(self, n: int) -> MultiPoly:
        if type(n) is not int:  # bools excluded
            raise TypeError(f"polynomial powers must be ints, got {n!r}")
        if n < 0:
            raise ValueError("negative polynomial powers are not defined in this ring")
        return prod(repeat(self, n), start=MultiPoly.one())

    def substitute(self, bindings: Mapping[VarId, MultiPoly | Scalar]) -> MultiPoly:
        """Replace each bound variable by its value, all at once; others untouched.

        A value is a polynomial or an exact scalar, and every binding reads
        the original variables, so {X: z, Z: x} swaps x and z.  substitute is
        a ring map, commuting with + and *: proving an identity for the
        symbolic La, Lb therefore proves it for every numeric specialization.
        """
        values = {_variable(v): val if isinstance(val, MultiPoly) else MultiPoly.const(val)
                  for v, val in bindings.items()}
        if not values or not self._nums:
            return self
        shifts = [_SHIFTS[v] for v in values]
        # Terms grouped by their bound exponents; each group keeps its free part.
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for k, c in self._nums.items():
            exps = tuple((k >> s) & MAX_DEGREE for s in shifts)
            free = k - (sum(exps) << _DEG_SHIFT) - sum(e << s for e, s in zip(exps, shifts))
            groups.setdefault(exps, {})[free] = c
        powers = [list(accumulate(repeat(val, max(e[i] for e in groups)), mul,
                                  initial=MultiPoly.one()))
                  for i, val in enumerate(values.values())]
        return linear_combination(
            (Fraction(1, self._den), MultiPoly._raw(free, 1),
             prod(row[e] for row, e in zip(powers, exps)))
            for exps, free in groups.items())

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if is_exact_scalar(other):
            other = MultiPoly.const(other)
        if isinstance(other, MultiPoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        # A constant hashes as its value, so it agrees with == against ints and Fractions.
        c = self.constant_value()
        return hash(c) if c is not None else hash((self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


def sum_of_products(triples: Iterable[tuple[Scalar, MultiPoly, MultiPoly]],
                    times: int = 1) -> MultiPoly:
    """times * the sum of c * a * b over the triples, the left-side kernel.

    Ring * (one triple) and every series product multiply here.  All
    products go into one integer map over the lcm D of the triples'
    denominators, so a Cauchy-product coefficient costs one degree check and
    one canonicalization instead of one per addition.  times is a positive
    int, a family member's n! when a series reader passes one: it is
    cancelled against D before any product is taken, so the sum lies over
    D / gcd(D, times) and each product is scaled by times / gcd(D, times),
    which is almost always 1.  The member then costs that one normalization,
    whose gcd scan mostly stops at 1, and no scaling pass of its own.
    """
    check_int("times", times, 1)
    items = []
    for c, a, b in triples:
        if a._nums and b._nums:
            p, q = _scalar_parts(c)
            if p:
                items.append((p, a._nums, b._nums, a._den * b._den * q))
    if not items:
        return MultiPoly._raw({}, 1)
    den = lcm(*(d for *_, d in items))
    g = gcd(den, times)
    scale = times // g
    out: dict[int, int] = {}
    get = out.get
    for p, na, nb, d in items:
        f = p * scale * (den // d)
        if len(na) > len(nb):
            na, nb = nb, na
        nb_items = nb.items()
        for ka, va in na.items():
            if f != 1:
                va *= f
            for kb, vb in nb_items:
                k = ka + kb
                out[k] = get(k, 0) + va * vb
    # A key reaches _KEY_LIMIT exactly when its total degree overflows, and zeros
    # stay in out until _normalized, so an overflowing key cannot cancel first.
    if max(out) >= _KEY_LIMIT:
        deg = max((max(na) >> _DEG_SHIFT) + (max(nb) >> _DEG_SHIFT) for _, na, nb, _ in items)
        raise ValueError(f"total degree {deg} exceeds the ring's limit {MAX_DEGREE}")
    return MultiPoly._normalized(out, den // g)


def linear_combination(triples: Iterable[tuple[Scalar, MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of c * a * b over the triples, the right-side kernel.

    Each a * b is multiplied in its own loop straight into one integer map
    over the lcm of the triples' denominators, so no product is normalized
    on its own; the total degree is checked once on that map, and the sum is
    normalized once.  This shares no code with sum_of_products on purpose:
    the identity verifiers build their right sides with this kernel and
    their left sides (through the series products) with that one, so a
    fault in either shows as a failed identity instead of cancelling out.
    """
    items = []
    for c, a, b in triples:
        if a._nums and b._nums:
            num, den = _scalar_parts(c)
            if num:
                items.append((num, a._nums, b._nums, a._den * b._den * den))
    if not items:
        return MultiPoly._raw({}, 1)
    den = lcm(*(d for *_, d in items))
    out: dict[int, int] = {}
    get = out.get
    for num, na, nb, d in items:
        f = num * (den // d)
        if len(na) > len(nb):
            na, nb = nb, na
        nb_items = nb.items()
        for ka, va in na.items():
            va *= f
            for kb, vb in nb_items:
                k = ka + kb
                out[k] = get(k, 0) + va * vb
    # Zeros stay in out until _normalized, so an overflowing term cannot cancel first.
    if max(out) >= _KEY_LIMIT:
        deg = max((max(na) >> _DEG_SHIFT) + (max(nb) >> _DEG_SHIFT) for _, na, nb, _ in items)
        raise ValueError(f"total degree {deg} exceeds the ring's limit {MAX_DEGREE}")
    return MultiPoly._normalized(out, den)


def _reduced_terms(p: MultiPoly) -> list[tuple[int, int, int]]:
    """(packed key, numerator, denominator) per term of p, in graded-lex order.

    Graded-lex order (total degree, then the exponent vector in VarId order,
    leading term first) is descending order on packed keys.  Each coefficient
    is reduced on its own, by one gcd, to a positive denominator.
    """
    nums, den = p._nums, p._den
    out = []
    for k in sorted(nums, reverse=True):
        num = nums[k]
        g = gcd(num, den)
        out.append((k, num // g, den // g))
    return out


def render_terms(polys: Iterable[MultiPoly], spelling: tuple = PLAIN_SPELLING) -> list[str]:
    """The text of each polynomial in polys, in PLAIN_SPELLING or LATEX_SPELLING.

    Terms in graded-lex order, unit coefficients dropped, and "0" for the zero
    polynomial.  Each distinct monomial is spelled once per call, from its
    packed key, so the rows of a table share that work.
    """
    names, times, (pow_open, pow_close), (frac_open, frac_mid, frac_close) = spelling
    monos: dict[int, str] = {}
    rows = []
    for p in polys:
        pieces = []
        for k, num, den in _reduced_terms(p):
            mono = monos.get(k)
            if mono is None:
                mono = monos[k] = times.join(
                    names[v] if e == 1 else f"{names[v]}{pow_open}{e}{pow_close}"
                    for v, e in enumerate(_unpack(k)) if e)
            mag = abs(num)
            coeff = f"{mag}" if den == 1 else f"{frac_open}{mag}{frac_mid}{den}{frac_close}"
            body = coeff if not mono else mono if coeff == "1" else f"{coeff}{times}{mono}"
            if pieces:
                pieces.append(f"- {body}" if num < 0 else f"+ {body}")
            else:
                pieces.append(f"-{body}" if num < 0 else body)
        rows.append(" ".join(pieces) if pieces else "0")
    return rows


def json_terms(p: MultiPoly) -> list[dict]:
    """p's terms in graded-lex order as JSON objects.

    Each is {"coeff": "n" or "n/d"}, then each nonzero exponent under its JSON key.
    """
    terms = []
    for k, num, den in _reduced_terms(p):
        term: dict = {"coeff": f"{num}" if den == 1 else f"{num}/{den}"}
        for key, e in zip(_JSON_KEYS, _unpack(k)):
            if e:
                term[key] = e
        terms.append(term)
    return terms


def format_poly(p: MultiPoly) -> str:
    """Render a polynomial like ``x^2 - x + 1/6`` in graded-lex order."""
    return render_terms([p])[0]
