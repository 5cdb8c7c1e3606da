"""Reference coefficient ring: one Fraction per term in a plain dict.

This is the straightforward dict-of-Fraction polynomial arithmetic the
package's packed, integer-numerator MultiPoly must agree with.  It shares no
code with apostol.polyring on purpose: the property tests compare the two
on random inputs.  A polynomial maps exponent vectors (x, y, z, La, Lb) to
nonzero Fraction coefficients; zero is the empty mapping.
"""

from __future__ import annotations

from fractions import Fraction

NAMES = ("x", "y", "z", "La", "Lb")
LATEX_NAMES = ("x", "y", "z", r"\log a", r"\log b")
JSON_KEYS = ("x", "y", "z", "la", "lb")
ZERO_EXPS = (0,) * len(NAMES)


class RefPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c}

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, RefPoly) else RefPoly({ZERO_EXPS: other})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._coerce(other).terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return RefPoly(out)

    def __pow__(self, n: int):
        out = RefPoly({ZERO_EXPS: 1})
        for _ in range(n):
            out = out * self
        return out

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {ZERO_EXPS}:
            return self.terms[ZERO_EXPS]
        return None

    def substitute(self, bindings):
        """Each bound variable replaced by its value, a RefPoly or a scalar, at once."""
        out = RefPoly()
        for e, c in self.terms.items():
            new = list(e)
            term = RefPoly({ZERO_EXPS: c})
            for v, val in bindings.items():
                term = term * self._coerce(val) ** e[v]
                new[v] = 0
            out = out + term * RefPoly({tuple(new): 1})
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def format_ref(p: RefPoly) -> str:
    """The package's documented rendering: graded-lex, leading term first."""
    if not p.terms:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = "*".join(NAMES[v] if e == 1 else f"{NAMES[v]}^{e}"
                        for v, e in enumerate(exps) if e)
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = "-" if coeff < 0 else ("" if i == 0 else "+")
        pieces.append(f"{sign}{body}" if i == 0 else f"{sign} {body}")
    return " ".join(pieces)


def latex_ref(p: RefPoly) -> str:
    """The CLI's LaTeX rendering: as format_ref, spelled x^{e}, \\frac{p}{q}, a space for *."""
    if not p.terms:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = " ".join(LATEX_NAMES[v] if e == 1 else f"{LATEX_NAMES[v]}^{{{e}}}"
                        for v, e in enumerate(exps) if e)
        mag = abs(coeff)
        num, den = mag.numerator, mag.denominator
        mag_tex = str(num) if den == 1 else rf"\frac{{{num}}}{{{den}}}"
        body = mag_tex if not mono else mono if mag == 1 else f"{mag_tex} {mono}"
        sign = "-" if coeff < 0 else ("" if i == 0 else "+")
        pieces.append(f"{sign}{body}" if i == 0 else f"{sign} {body}")
    return " ".join(pieces)


def json_ref(p: RefPoly) -> list[dict]:
    """The CLI's JSON terms: graded-lex, a "n" or "n/d" coefficient, then each nonzero exponent."""
    return [{"coeff": str(coeff), **{k: e for k, e in zip(JSON_KEYS, exps) if e}}
            for exps, coeff in p.sorted_terms()]
