"""Command-line front end: expand family tables, run identity verifiers.

Output is deterministic (graded-lex term order, ascending n) so that runs
can be pinned byte-for-byte in golden files.  Exit codes are a stable
contract for CI: 0 on success or all identities passing, 1 when a selected
identity fails, 2 on unusable flags or an unconstructible family.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .family import (
    FamilySpec,
    LogBase,
    PHI_KINDS,
    Phi,
    PolyTable,
    PRESETS,
    extract_table,
    general_members,
    phi_label,
)
from .identities import AUXILIARY, IdentityId, Verdict, verify_all, verify_identity
from .identities import verify_shift  # noqa: F401  (unused; the bench tracer test patches it)
from .polyring import LATEX_SPELLING, MAX_DEGREE, format_poly, json_terms, render_terms

# The table formats: the --format choices of expand and table, and render_table's cases.
FORMATS = JSON, CSV, LATEX = ("json", "csv", "latex")

# Table presets whose --m replaces the step of their phi: those named after
# their phi kind ("hermite" is Gould-Hopper at its fixed step m=2).
TABLE_STEP_PRESETS = [name for name, spec in sorted(PRESETS.items()) if spec.phi.kind == name]

# The classical presets: each table is its preset's unified table, scaled as its note says.
TABLE_PRESET_NOTES = {
    "bernoulli": "classical Bernoulli polynomials; the unified family at k=1, alpha=1 equals (-1)^r times these",
    "euler": "classical Euler polynomials; equal to the unified family at k=0, alpha=-1",
    "genocchi": "classical Genocchi polynomials; the unified family at k=1, alpha=-1 equals 2^(-r) times these",
}


# -- rendering ----------------------------------------------------------------


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


def render_table(table: PolyTable, fmt: str, *, preset: str | None = None) -> str:
    note = TABLE_PRESET_NOTES.get(preset)
    if fmt == JSON:
        import json  # only JSON output needs it, so other commands start without it
        doc: dict = {}
        if table.spec is not None:
            doc["spec"] = spec_to_json(table.spec)
        else:
            if preset is not None:
                doc["preset"] = preset
            doc["label"] = table.label
        if note:
            doc["note"] = note
        doc["n_max"] = table.n_max
        text = json.dumps({**doc, "entries": []}, indent=2)  # ends in '"entries": []\n}'
        # json.dumps of the whole document, one entry at a time: only its term dicts are held
        entries = ",\n".join("    " + json.dumps({"n": n, "terms": json_terms(p)}, indent=2)
                             .replace("\n", "\n    ") for n, p in table)
        return f"{text[:-3]}\n{entries}\n  ]\n}}\n" if entries else text + "\n"
    header = [text for text in (table.label, note) if text]
    if fmt == CSV:
        lines = [f"# {text}" for text in header]
        lines.append("n,polynomial")
        lines.extend(f"{n},{row}" for n, row in enumerate(render_terms(p for _, p in table)))
        return "\n".join(lines) + "\n"
    if fmt == LATEX:
        lines = [f"% {text}" for text in header]
        lines += [r"\begin{tabular}{rl}", r"\hline", r"$n$ & $P_n$ \\", r"\hline"]
        rows = render_terms((p for _, p in table), LATEX_SPELLING)
        lines.extend(rf"{n} & ${row}$ \\" for n, row in enumerate(rows))
        lines += [r"\hline", r"\end{tabular}"]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")


def render_verdict(verdict: Verdict) -> str:
    if verdict.passed:
        return f"{verdict.identity.value}: PASS"
    ce = verdict.counterexample
    where = ", ".join(f"{name}={v}" for name, v in zip(("n", "m"), ce.indices))
    return (
        f"{verdict.identity.value}: FAIL at {where}\n"
        f"  lhs = {format_poly(ce.lhs)}\n"
        f"  rhs = {format_poly(ce.rhs)}"
    )


# -- flag parsing ---------------------------------------------------------------


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag}: not a rational number: {text!r}") from exc


def _parse_base(text: str, flag: str, symbolic: LogBase) -> LogBase:
    bases = {"1": LogBase.ONE, "e": LogBase.E, "sym": symbolic}
    if text not in bases:
        raise ValueError(f"{flag}: base must be one of {', '.join(bases)}; got {text!r}")
    return bases[text]


def _parse_phi(kind: str, m: int | None) -> Phi:
    if kind == "unit" and m is not None:
        raise ValueError("--m does not apply to --phi unit")
    return Phi(kind, m)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, as each of its subparsers is, whose flags store through _StoreOnce."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)


class _StoreOnce(argparse.Action):
    # A flag given twice, even abbreviated, is a usage error (exit 2).  The flags
    # stored so far are kept in the namespace being filled, a fresh one per subparser.
    def __call__(self, parser, namespace, values, option_string=None):
        stored = vars(namespace).setdefault("_stored_flags", set())
        if self.dest in stored:
            raise argparse.ArgumentError(self, "given more than once")
        stored.add(self.dest)
        setattr(namespace, self.dest, values)


def _given(args: argparse.Namespace, *names: str) -> list[str]:
    """The flags among names that were set on the command line (parser default None)."""
    return [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    if args.preset:
        given = _given(args, "alphas", "k", "a", "b", "phi", "m")
        if given:
            raise ValueError(f"--preset cannot be combined with {', '.join(given)}")
        return PRESETS[args.preset]
    default = PRESETS["euler"]  # each absent flag takes this family's value
    alphas = default.alphas if args.alphas is None else tuple(
        _parse_rational(s, "--alphas") for s in args.alphas.split(","))
    return FamilySpec(
        r=len(alphas),
        k=args.k if args.k is not None else default.k,
        a=default.a if args.a is None else _parse_base(args.a, "--a", LogBase.SYMBOLIC_A),
        b=default.b if args.b is None else _parse_base(args.b, "--b", LogBase.SYMBOLIC_B),
        alphas=alphas,
        phi=_parse_phi(args.phi if args.phi is not None else default.phi.kind, args.m),
    )


def _steps_help(phis: list[tuple[str, Phi]]) -> str:
    """The --m defaults, read from the phis: 'defaults: name param=step, ...'."""
    return "defaults: " + ", ".join(f"{name} {PHI_KINDS[phi.kind][0]}={phi.step}"
                                    for name, phi in phis)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    # Defaults are None so that _spec_from_args can tell a given flag from an
    # absent one; the Euler preset's values are filled in there.
    default = PRESETS["euler"]
    alphas = ",".join(map(str, default.alphas))
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named family (cannot be combined with the individual flags)")
    parser.add_argument("--k", type=int, help=f"power-of-t twist k (default {default.k})")
    parser.add_argument("--alphas",
                        help="comma-separated rationals, one per factor, so their number is "
                             f"the order r (default {alphas}, so r={default.r}); each is read "
                             "exactly as Python's Fraction reads it (1.5 is 3/2, 1e3 is 1000); "
                             "write --alphas=-1,3 when the first is negative")
    parser.add_argument("--a", help=f"base a: 1, e or sym (default {default.a.value})")
    parser.add_argument("--b", help=f"base b: 1, e or sym (default {default.b.value})")
    parser.add_argument("--phi", choices=PHI_KINDS,
                        help=f"two-variable polynomial layer (default {default.phi.kind})")
    kinds = [(kind, Phi(kind)) for kind, (param, *_) in PHI_KINDS.items() if param]
    parser.add_argument("--m", type=int, help=f"step parameter of --phi ({_steps_help(kinds)})")


def _classical_table(preset: str, n_max: int, m: int | None) -> PolyTable:
    if m is not None and preset not in TABLE_STEP_PRESETS:
        raise ValueError(f"--m does not apply to --preset {preset}")
    if preset in TABLE_PRESET_NOTES:  # r = 1: the scales (-1)^r, 1 and 2^r of the notes
        scale = {"bernoulli": -1, "euler": 1, "genocchi": 2}[preset]
        return PolyTable(f"apostol-{preset}(r=1, lambda=1)",
                         tuple((n, p * scale) for n, p in extract_table(PRESETS[preset], n_max)))
    phi = PRESETS[preset].phi if m is None else PRESETS[preset].phi.replace(step=m)
    suffix = "" if phi.kind == "gould-hopper" else " two-variable polynomials"
    return PolyTable(label=phi_label(phi) + suffix,
                     entries=tuple(enumerate(general_members(phi, n_max))))


# -- subcommands ------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    table = extract_table(spec, args.n)
    sys.stdout.write(render_table(table, args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    reads = AUXILIARY if args.identity == "all" else IdentityId(args.identity).args
    misused = [name for name in AUXILIARY if name not in reads and getattr(args, name) is not None]
    readers = [" or ".join(i.value for i in IdentityId if name in i.args) for name in misused]
    if misused:  # name the first misused flag, with any other read by the same identities
        flags = _given(args, *(name for name, r in zip(misused, readers) if r == readers[0]))
        raise ValueError(f"{' and '.join(flags)}: only used by --identity {readers[0]} or all")
    if "m_max" in reads and args.n + (args.n if args.m_max is None else args.m_max) > MAX_DEGREE:
        raise ValueError(f"--m-max plus --n must be at most {MAX_DEGREE} (absent, --m-max is --n)")
    given = {name: _parse_rational(getattr(args, name), f"--{name}") for name in ("c", "d")
             if getattr(args, name) is not None}  # absent: AUXILIARY's defaults
    if zero := [name for name, value in given.items() if value == 0]:
        raise ValueError(f"--{zero[0]}: symmetry scalar must be nonzero")
    if args.identity == "all":
        verdicts = verify_all(spec, args.n, m_max=args.m_max, **given)
    else:
        verdicts = [verify_identity(IdentityId(args.identity), spec, args.n,
                                    m_max=args.m_max, **given)]
    for verdict in verdicts:
        print(render_verdict(verdict))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_table(args: argparse.Namespace) -> int:
    table = _classical_table(args.preset, args.n, args.m)
    sys.stdout.write(render_table(table, args.format, preset=args.preset))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apostol",
        description="Expand unified Apostol-type polynomial families and "
                    "verify their summation and symmetry identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a family into a polynomial table")
    _add_spec_flags(p_expand)
    p_expand.add_argument("--n", type=int, required=True, help="largest index n")
    p_expand.add_argument("--format", default="json", choices=FORMATS)
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="verify identities for a family")
    _add_spec_flags(p_verify)
    p_verify.add_argument("--identity", default="all",
                          choices=[i.value for i in IdentityId] + ["all"])
    p_verify.add_argument("--n", type=int, required=True, help="largest index n")
    p_verify.add_argument("--c", help=f"first symmetry scalar (default {AUXILIARY['c']})")
    p_verify.add_argument("--d", help=f"second symmetry scalar (default {AUXILIARY['d']})")
    p_verify.add_argument("--m-max", type=int, dest="m_max",
                          help="second index bound for double-index (default --n)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="print a classical family table")
    p_table.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_table.add_argument("--n", type=int, required=True, help="largest index n")
    steps = _steps_help([(name, PRESETS[name].phi) for name in TABLE_STEP_PRESETS])
    p_table.add_argument("--m", type=int, help=f"step parameter of the preset's phi ({steps})")
    p_table.add_argument("--format", default="json", choices=FORMATS)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n > MAX_DEGREE:  # no table holds a member of a larger degree
            raise ValueError(f"--n must be at most {MAX_DEGREE}, got {args.n}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
