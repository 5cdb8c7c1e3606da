"""Command-line front end: expand family tables, run identity verifiers.

Output is deterministic (graded-lex term order, ascending n) so that runs
can be pinned byte-for-byte in golden files.  Exit codes are a stable
contract for CI: 0 on success or all identities passing, 1 when a selected
identity fails, 2 on unusable flags or an unconstructible family.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .family import (
    ClassicalFamily,
    FamilySpec,
    LogBase,
    PHI_KINDS,
    Phi,
    PolyTable,
    PRESETS,
    extract_table,
    general_members,
    gould_hopper_table,
    phi_label,
    special_case_oracle,
)
from .identities import (
    IdentityId,
    Verdict,
    verify_all,
    verify_double_index,
    verify_series_def,
    verify_shift,
    verify_shift_general,
    verify_shift_mixed,
    verify_shift_one,
    verify_symmetry,
)
from .polyring import MultiPoly, format_poly
from .series import SeriesError

JSON_EXPONENT_KEYS = ("x", "y", "z", "la", "lb")

LATEX_VAR_NAMES = ("x", "y", "z", r"\log a", r"\log b")

TABLE_PRESET_NOTES = {
    "bernoulli": "classical Bernoulli polynomials; the unified family at k=1, alpha=1 equals (-1)^r times these",
    "euler": "classical Euler polynomials; equal to the unified family at k=0, alpha=-1",
    "genocchi": "classical Genocchi polynomials; the unified family at k=1, alpha=-1 equals 2^(-r) times these",
}


# -- rendering ----------------------------------------------------------------


def poly_to_json_terms(p: MultiPoly) -> list[dict]:
    terms = []
    for exps, num, den in p.reduced_terms():
        term: dict = {"coeff": f"{num}" if den == 1 else f"{num}/{den}"}
        for key, e in zip(JSON_EXPONENT_KEYS, exps):
            if e:
                term[key] = e
        terms.append(term)
    return terms


def poly_to_latex(p: MultiPoly) -> str:
    if not p:
        return "0"
    pieces = []
    for i, (exps, num, den) in enumerate(p.reduced_terms()):
        mono = " ".join(
            LATEX_VAR_NAMES[v] if e == 1 else f"{LATEX_VAR_NAMES[v]}^{{{e}}}"
            for v, e in enumerate(exps)
            if e
        )
        mag = abs(num)
        if den == 1:
            mag_tex = str(mag)
        else:
            mag_tex = rf"\frac{{{mag}}}{{{den}}}"
        if not mono:
            body = mag_tex
        elif mag == 1 and den == 1:
            body = mono
        else:
            body = f"{mag_tex} {mono}"
        if i == 0:
            pieces.append(f"-{body}" if num < 0 else body)
        else:
            pieces.append(f"- {body}" if num < 0 else f"+ {body}")
    return " ".join(pieces)


def spec_to_json(spec: FamilySpec) -> dict:
    phi: dict = {"kind": spec.phi.kind}
    param = PHI_KINDS[spec.phi.kind][0]
    if param is not None:
        phi[param] = spec.phi.step
    return {
        "r": spec.r,
        "k": spec.k,
        "a": spec.a.value,
        "b": spec.b.value,
        "alphas": [str(a) for a in spec.alphas],
        "phi": phi,
    }


def render_table(table: PolyTable, fmt: str, *, preset: str | None = None,
                 note: str | None = None) -> str:
    if fmt == "json":
        doc: dict = {}
        if table.spec is not None:
            doc["spec"] = spec_to_json(table.spec)
        else:
            doc["preset"] = preset
            doc["label"] = table.label
        if note:
            doc["note"] = note
        doc["n_max"] = table.n_max
        doc["entries"] = [
            {"n": n, "terms": poly_to_json_terms(p)} for n, p in table
        ]
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = [f"# {table.label}"]
        if note:
            lines.append(f"# {note}")
        lines.append("n,polynomial")
        lines.extend(f"{n},{format_poly(p)}" for n, p in table)
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = [f"% {table.label}"]
        if note:
            lines.append(f"% {note}")
        lines += [r"\begin{tabular}{rl}", r"\hline", r"$n$ & $P_n$ \\", r"\hline"]
        lines.extend(rf"{n} & ${poly_to_latex(p)}$ \\" for n, p in table)
        lines += [r"\hline", r"\end{tabular}"]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")


def render_verdict(verdict: Verdict) -> str:
    if verdict.passed:
        return f"{verdict.identity.value}: PASS"
    ce = verdict.counterexample
    names = ("n", "m")
    where = ", ".join(f"{names[i]}={v}" for i, v in enumerate(ce.indices))
    return (
        f"{verdict.identity.value}: FAIL at {where}\n"
        f"  lhs = {format_poly(ce.lhs)}\n"
        f"  rhs = {format_poly(ce.rhs)}"
    )


# -- flag parsing ---------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _parse_base(text: str, symbolic: LogBase) -> LogBase:
    if text == "1":
        return LogBase.ONE
    if text == "e":
        return LogBase.E
    if text == "sym":
        return symbolic
    raise ValueError(f"base must be one of 1, e, sym; got {text!r}")


def _parse_phi(kind: str, m: int | None) -> Phi:
    if kind in ("unit", "hermite") and m is not None:
        raise ValueError(f"--m does not apply to --phi {kind}")
    return PRESETS["hermite"].phi if kind == "hermite" else Phi(kind, m)


def _given(args: argparse.Namespace, *names: str) -> list[str]:
    """The flags among names that were set on the command line (parser default None)."""
    return [f"--{name}" for name in names if getattr(args, name) is not None]


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    if args.preset:
        given = _given(args, "r", "alphas", "k", "a", "b", "phi", "m")
        if given:
            raise ValueError(f"--preset cannot be combined with {', '.join(given)}")
        return PRESETS[args.preset]
    if args.r is None and args.alphas is None:
        r, alphas = 1, (Fraction(-1),)  # the Euler specialization
    elif args.r is None or args.alphas is None:
        raise ValueError("need both --r and --alphas (or neither, for the default family)")
    else:
        r = args.r
        alphas = tuple(_parse_rational(s) for s in args.alphas.split(","))
    return FamilySpec(
        r=r,
        k=args.k if args.k is not None else 0,
        a=_parse_base(args.a if args.a is not None else "1", LogBase.SYMBOLIC_A),
        b=_parse_base(args.b if args.b is not None else "e", LogBase.SYMBOLIC_B),
        alphas=alphas,
        phi=_parse_phi(args.phi if args.phi is not None else "unit", args.m),
    )


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    # Defaults are None so that _spec_from_args can tell a given flag from an
    # absent one; the documented defaults are applied there.
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named family (cannot be combined with the individual flags)")
    parser.add_argument("--r", type=int,
                        help="order r (number of alphas); default family is r=1, alphas=-1")
    parser.add_argument("--k", type=int, help="power-of-t twist k (default 0)")
    parser.add_argument("--alphas",
                        help="comma-separated rationals, one per factor; "
                             "write --alphas=-1,3 when the first is negative")
    parser.add_argument("--a", help="base a: 1, e or sym (default 1)")
    parser.add_argument("--b", help="base b: 1, e or sym (default e)")
    parser.add_argument("--phi",
                        choices=["unit", "gould-hopper", "hermite", "laguerre", "truncated-exp"],
                        help="two-variable polynomial layer (default unit)")
    parser.add_argument("--m", type=int,
                        help="parameter of --phi gould-hopper/laguerre/truncated-exp "
                             "(default 2, 1, 2)")


def _classical_table(preset: str, n_max: int, m: int | None) -> PolyTable:
    if preset in ("bernoulli", "euler", "genocchi", "hermite") and m is not None:
        raise ValueError(f"--m does not apply to --preset {preset}")
    if preset in ("bernoulli", "euler", "genocchi"):
        return special_case_oracle(ClassicalFamily(f"apostol-{preset}"), 1, 1, n_max)
    phi = PRESETS[preset].phi
    if m is not None:
        phi = Phi(phi.kind, m)
    if phi.kind == "gould-hopper":
        return gould_hopper_table(phi.step, n_max)
    members = general_members(phi, n_max)
    return PolyTable(label=f"{phi_label(phi)} two-variable polynomials",
                     entries=tuple(enumerate(members)))


# -- subcommands ------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    table = extract_table(spec, args.n)
    sys.stdout.write(render_table(table, args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    scalars = _given(args, "c", "d")
    if scalars and args.identity not in ("all", IdentityId.SYMMETRY.value):
        raise ValueError(f"{' and '.join(scalars)}: only used by --identity symmetry or all")
    if args.m_max is not None and args.identity not in ("all", IdentityId.DOUBLE_INDEX.value):
        raise ValueError("--m-max: only used by --identity double-index or all")
    c = _parse_rational(args.c if args.c is not None else "2")
    d = _parse_rational(args.d if args.d is not None else "3")
    m_max = args.m_max if args.m_max is not None else args.n
    if args.identity == "all":
        verdicts = verify_all(spec, args.n, c=c, d=d, m_max=m_max)
    else:
        ident = IdentityId(args.identity)
        if ident is IdentityId.SYMMETRY:
            verdicts = [verify_symmetry(spec, c, d, args.n)]
        elif ident is IdentityId.DOUBLE_INDEX:
            verdicts = [verify_double_index(spec, args.n, m_max)]
        else:
            fn = {
                IdentityId.SERIES_DEF: verify_series_def,
                IdentityId.SHIFT: verify_shift,
                IdentityId.SHIFT_MIXED: verify_shift_mixed,
                IdentityId.SHIFT_ONE: verify_shift_one,
                IdentityId.SHIFT_GENERAL: verify_shift_general,
            }[ident]
            verdicts = [fn(spec, args.n)]
    for verdict in verdicts:
        print(render_verdict(verdict))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_table(args: argparse.Namespace) -> int:
    table = _classical_table(args.preset, args.n, args.m)
    note = TABLE_PRESET_NOTES.get(args.preset)
    sys.stdout.write(render_table(table, args.format, preset=args.preset, note=note))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apostol",
        description="Expand unified Apostol-type polynomial families and "
                    "verify their summation and symmetry identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a family into a polynomial table")
    _add_spec_flags(p_expand)
    p_expand.add_argument("--n", type=int, required=True, help="largest index n")
    p_expand.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="verify identities for a family")
    _add_spec_flags(p_verify)
    p_verify.add_argument("--identity", default="all",
                          choices=[i.value for i in IdentityId] + ["all"])
    p_verify.add_argument("--n", type=int, required=True, help="largest index n")
    p_verify.add_argument("--c", help="first symmetry scalar (default 2)")
    p_verify.add_argument("--d", help="second symmetry scalar (default 3)")
    p_verify.add_argument("--m-max", type=int, dest="m_max",
                          help="second index bound for double-index (default --n)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="print a classical family table")
    p_table.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_table.add_argument("--n", type=int, required=True, help="largest index n")
    p_table.add_argument("--m", type=int,
                         help="order parameter for gould-hopper/laguerre/truncated-exp "
                              "(default 3, 1, 2)")
    p_table.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
