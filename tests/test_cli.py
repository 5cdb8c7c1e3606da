"""CLI behaviour: golden files, exit codes, serialization round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import apostol.identities as identities_mod
import classical_oracle as co
from apostol.cli import TABLE_PRESET_NOTES, _classical_table, main, render_table, render_verdict
from apostol.family import (
    PHI_KINDS, PRESETS, FamilySpec, GouldHopper, Laguerre, LogBase, Phi, PolyTable,
    TruncatedExp, extract_table, general_members,
)
from apostol.identities import Counterexample, IdentityId, Verdict, verify_all
from apostol.polyring import MultiPoly, VarId, json_terms

from helpers import xpoly_to_multipoly
from reference_ring import RefPoly, format_ref, latex_ref

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

GOLDEN_MANIFEST = [
    ("expand_euler_n4.json", ["expand", "--preset", "euler", "--n", "4"]),
    ("expand_bernoulli_n4.csv", ["expand", "--preset", "bernoulli", "--n", "4", "--format", "csv"]),
    ("expand_genocchi_n4.json", ["expand", "--preset", "genocchi", "--n", "4"]),
    ("expand_hermite_n4.csv", ["expand", "--preset", "hermite", "--n", "4", "--format", "csv"]),
    ("expand_laguerre_n3.tex", ["expand", "--preset", "laguerre", "--n", "3", "--format", "latex"]),
    ("expand_truncated_exp_n4.json", ["expand", "--preset", "truncated-exp", "--n", "4"]),
    ("expand_gould_hopper_n4.csv", ["expand", "--preset", "gould-hopper", "--n", "4", "--format", "csv"]),
    ("table_bernoulli_n4.csv", ["table", "--preset", "bernoulli", "--n", "4", "--format", "csv"]),
    ("table_euler_n4.json", ["table", "--preset", "euler", "--n", "4"]),
    ("table_genocchi_n5.csv", ["table", "--preset", "genocchi", "--n", "5", "--format", "csv"]),
    ("table_hermite_n4.tex", ["table", "--preset", "hermite", "--n", "4", "--format", "latex"]),
    ("table_laguerre_n3.json", ["table", "--preset", "laguerre", "--n", "3"]),
    ("table_truncated_exp_n4.csv", ["table", "--preset", "truncated-exp", "--n", "4", "--format", "csv"]),
    ("table_gould_hopper_n3.csv", ["table", "--preset", "gould-hopper", "--n", "3", "--format", "csv"]),
    ("verify_euler_all_n5.txt", ["verify", "--identity", "all", "--preset", "euler", "--n", "5"]),
    ("verify_hermite_symmetry_n5.txt", ["verify", "--identity", "symmetry", "--preset", "hermite",
                                        "--c", "2", "--d", "3", "--n", "5"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_MANIFEST, ids=[n for n, _ in GOLDEN_MANIFEST])
def test_golden_output(name, argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", [n for n, _ in GOLDEN_MANIFEST if n.endswith(".json")])
def test_golden_json_round_trip(name):
    text = (GOLDEN_DIR / name).read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


# Tables no preset reaches, where writing entry by entry could part from one
# json.dumps of the whole document: no entries, a zero member, no spec (without a
# preset, with one, and with one that has a note) and a deep expand table.
JSON_TABLES = [
    (lambda: PolyTable("empty", ()), None),
    (lambda: PolyTable("zero member", ((0, MultiPoly.one()), (1, MultiPoly.zero()))), None),
    (lambda: PolyTable("gh", tuple(enumerate(general_members(GouldHopper(2), 3)))), None),
    (lambda: PolyTable("gh", tuple(enumerate(general_members(GouldHopper(2), 3)))), "hermite"),
    (lambda: _classical_table("bernoulli", 4, None), "bernoulli"),
    (lambda: extract_table(FamilySpec(2, 1, LogBase.ONE, LogBase.E, (Fraction(5, 7),) * 2,
                                      Laguerre(1)), 48), None),
]


def test_json_tables_written_entry_by_entry_round_trip():
    for build, preset in JSON_TABLES:
        table = build()
        text = render_table(table, "json", preset=preset)
        doc = json.loads(text)
        assert json.dumps(doc, indent=2) + "\n" == text
        # the same bytes as the whole document, its entries from json_terms, in one json.dumps
        doc["entries"] = [{"n": n, "terms": json_terms(p)} for n, p in table]
        assert json.dumps(doc, indent=2) + "\n" == text, table.label


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter with PYTHONPATH=src, as the console script runs."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def test_the_cli_starts_without_dataclasses_inspect_or_json():
    # Compared with a bare interpreter, since site may load modules of its own.
    # Under -S nothing does, so there the bare side imports the stdlib modules
    # apostol needs, and typing (which site often loads) shows if apostol adds it.
    probe = "import sys{}; print(*sys.modules, sep=chr(10))"
    stdlib = "; import argparse, fractions, enum, functools, itertools, math, operator"
    for flags, base, unwanted in (((), "", {"dataclasses", "inspect", "json"}),
                                  (("-S",), stdlib, {"typing"})):
        bare, cli = (set(_fresh_python(*flags, "-c", probe.format(extra)).stdout.decode().split())
                     for extra in (base, base + "; import apostol.cli"))
        assert "apostol.cli" in cli - bare, flags
        assert not (cli - bare) & unwanted, flags
    # The JSON branch imports json itself, in a process where nothing else has.
    run = _fresh_python("-m", "apostol.cli", "expand", "--preset", "euler", "--n", "4")
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDEN_DIR / "expand_euler_n4.json").read_bytes()


# Tables whose rows share many monomials, one with a symbolic-base spelling and one
# with a zero row, each built apart from the CLI (the last by tests/classical_oracle.py).
ROW_CASES = [
    (["expand", "--preset", "hermite", "--n", "4"],
     lambda: extract_table(PRESETS["hermite"], 4)),
    (["expand", "--r", "2", "--alphas", "5/7,5/7", "--a", "1", "--b", "e",
      "--phi", "gould-hopper", "--m", "2", "--n", "16"],
     lambda: extract_table(FamilySpec(2, 0, LogBase.ONE, LogBase.E, (Fraction(5, 7),) * 2,
                                      GouldHopper(2)), 16)),
    (["expand", "--r", "2", "--alphas", "2,-3", "--a", "sym", "--b", "sym",
      "--phi", "truncated-exp", "--m", "2", "--n", "8"],
     lambda: extract_table(FamilySpec(2, 0, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B, (2, -3),
                                      TruncatedExp(2)), 8)),
    (["table", "--preset", "genocchi", "--n", "5"],
     lambda: enumerate(map(xpoly_to_multipoly, co.apostol_genocchi(1, 1, 5)))),
]


def test_csv_and_latex_agree_with_table_order(capsys):
    def rendered(argv, fmt):
        assert main([*argv, "--format", fmt]) == 0
        text = capsys.readouterr().out
        return text, [line for line in text.splitlines() if line[:1].isdigit()]

    for argv, build in ROW_CASES:
        refs = [RefPoly(p.terms) for _, p in build()]
        csv_text, csv_rows = rendered(argv, "csv")
        assert csv_rows == [f"{n},{format_ref(p)}" for n, p in enumerate(refs)], argv
        _, tex_rows = rendered(argv, "latex")
        assert tex_rows == [rf"{n} & ${latex_ref(p)}$ \\" for n, p in enumerate(refs)], argv
        # Monomial spellings live for one call: a LaTeX run in between changes no csv byte.
        assert rendered(argv, "csv")[0] == csv_text, argv
    assert "0,0" in csv_rows  # the Genocchi table starts with the zero polynomial


def test_verify_single_identity_line(capsys):
    assert main(["verify", "--identity", "shift", "--preset", "euler", "--n", "0"]) == 0
    assert capsys.readouterr().out == "shift: PASS\n"


def test_bare_flags_fall_back_to_default_family(capsys):
    assert main(["verify", "--identity", "shift", "--n", "0"]) == 0
    assert capsys.readouterr().out == "shift: PASS\n"
    assert main(["expand", "--n", "2", "--format", "csv"]) == 0
    default_out = capsys.readouterr().out
    assert main(["expand", "--preset", "euler", "--n", "2", "--format", "csv"]) == 0
    assert default_out == capsys.readouterr().out


def test_expand_json_matches_documented_term_schema(capsys):
    assert main(["expand", "--preset", "euler", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry2 = doc["entries"][2]
    assert entry2["terms"] == [{"coeff": "1", "x": 2}, {"coeff": "-1", "x": 1}]


def test_every_variable_keeps_its_spelling_in_every_format():
    # The golden files hold only x and y; this pins the z, La and Lb spellings too.
    x, y, z = (MultiPoly.var(v) for v in (VarId.X, VarId.Y, VarId.Z))
    la, lb = MultiPoly.var(VarId.LA), MultiPoly.var(VarId.LB)
    table = PolyTable("spellings", ((0, x * y * z * la * lb),
                                    (1, z**3 + Fraction(-2, 3) * la**2 * lb - lb + 1)))
    entries = json.loads(render_table(table, "json"))["entries"]
    assert [e["terms"] for e in entries] == [
        [{"coeff": "1", "x": 1, "y": 1, "z": 1, "la": 1, "lb": 1}],
        [{"coeff": "1", "z": 3}, {"coeff": "-2/3", "la": 2, "lb": 1}, {"coeff": "-1", "lb": 1},
         {"coeff": "1"}],
    ]
    assert render_table(table, "csv").splitlines()[2:] == [
        "0,x*y*z*La*Lb", "1,z^3 - 2/3*La^2*Lb - Lb + 1"]
    assert render_table(table, "latex").splitlines()[5:7] == [
        r"0 & $x y z \log a \log b$ \\",
        r"1 & $z^{3} - \frac{2}{3} \log a^{2} \log b - \log b + 1$ \\"]
    with pytest.raises(ValueError, match="^unknown format: xml$"):
        render_table(table, "xml")


def test_a_json_table_names_a_preset_only_when_one_is_passed():
    # A table built by library code has a label but no spec; with no preset it names none.
    table = PolyTable("gh", tuple(enumerate(general_members(GouldHopper(2), 2))))
    assert list(json.loads(render_table(table, "json"))) == ["label", "n_max", "entries"]
    named = json.loads(render_table(table, "json", preset="hermite"))
    assert list(named) == ["preset", "label", "n_max", "entries"]
    assert named["preset"] == "hermite"


def test_a_json_table_renders_within_five_times_the_size_of_its_text():
    # 2,925 terms in 248 KB of text.  Each entry is dumped alone, so the render
    # peaks near 2.2x the text; one json.dumps of the whole document, which holds
    # every term dict and encoder chunk at once, peaks near 11x.
    table = extract_table(FamilySpec(2, 1, LogBase.ONE, LogBase.E, (1, 1), Laguerre(1)), 24)
    tracemalloc.start()
    try:
        text = render_table(table, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text), f"peak {peak} B for {len(text)} B of text"


def test_exit_code_2_on_spec_errors(capsys):
    cases = [
        ["expand", "--r", "2", "--alphas", "5", "--n", "2"],
        ["expand", "--r", "1", "--k", "1", "--alphas", "1", "--a", "sym", "--b", "sym", "--n", "2"],
        ["expand", "--preset", "euler", "--r", "1", "--alphas", "2", "--n", "1"],
        ["expand", "--r", "1", "--alphas", "1", "--n", "1"],  # pole: unit alpha, k=0
        ["expand", "--r", "1", "--alphas", "x", "--n", "1"],
        ["expand", "--r", "1", "--alphas", "2", "--a", "q", "--n", "1"],
        ["verify", "--preset", "euler", "--n", "2", "--c", "0"],
        ["expand", "--r", "2", "--n", "2"],  # r without alphas
        # a flag the chosen family or identity does not use is an error, not a no-op
        ["expand", "--phi", "hermite", "--m", "5", "--n", "2"],
        ["expand", "--phi", "unit", "--m", "5", "--n", "2"],
        ["expand", "--m", "5", "--n", "2"],
        ["expand", "--preset", "euler", "--phi", "laguerre", "--k", "3", "--n", "2"],
        ["expand", "--preset", "hermite", "--a", "1", "--n", "2"],
        ["verify", "--preset", "euler", "--b", "e", "--n", "2"],
        ["verify", "--preset", "euler", "--m", "2", "--n", "2"],
        ["table", "--preset", "bernoulli", "--m", "5", "--n", "2"],
        ["table", "--preset", "euler", "--m", "5", "--n", "2"],
        ["table", "--preset", "genocchi", "--m", "5", "--n", "2"],
        ["table", "--preset", "hermite", "--m", "5", "--n", "2"],
        ["verify", "--identity", "double-index", "--preset", "euler", "--n", "-1", "--m-max", "3"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv


C_UNUSED = "error: --c: only used by --identity symmetry or all\n"
D_UNUSED = "error: --d: only used by --identity symmetry or all\n"
M_MAX_UNUSED = "error: --m-max: only used by --identity double-index or all\n"

# Each --identity choice against --c 5, --d 5 and --m-max 1: None where the
# identity reads the flag (exit 0), else the exact error (exit 2).
AUX_FLAG_TABLE = {
    "series-def": (C_UNUSED, D_UNUSED, M_MAX_UNUSED),
    "shift": (C_UNUSED, D_UNUSED, M_MAX_UNUSED),
    "shift-mixed": (C_UNUSED, D_UNUSED, M_MAX_UNUSED),
    "double-index": (C_UNUSED, D_UNUSED, None),
    "shift-one": (C_UNUSED, D_UNUSED, M_MAX_UNUSED),
    "shift-general": (C_UNUSED, D_UNUSED, M_MAX_UNUSED),
    "symmetry": (None, None, M_MAX_UNUSED),
    "all": (None, None, None),
}
AUX_FLAGS = (["--c", "5"], ["--d", "5"], ["--m-max", "1"])


def test_aux_flag_table_covers_every_identity_choice():
    assert list(AUX_FLAG_TABLE) == [i.value for i in IdentityId] + ["all"]


@pytest.mark.parametrize("identity, flag, error", [
    (identity, flag, error)
    for identity, errors in AUX_FLAG_TABLE.items() for flag, error in zip(AUX_FLAGS, errors)
])
def test_an_aux_flag_is_taken_only_by_the_identities_that_read_it(identity, flag, error,
                                                                   capsys):
    rc = main(["verify", "--identity", identity, "--preset", "euler", *flag, "--n", "1"])
    out, err = capsys.readouterr()
    assert (rc, err) == ((0, "") if error is None else (2, error))
    assert (out == "") == (error is not None)


def test_unused_aux_flags_are_named_by_their_first_reader(capsys):
    # Flags read by the same identities are named together; the first group is reported.
    assert main(["verify", "--identity", "shift", "--preset", "euler", "--m-max", "1",
                 "--d", "5", "--c", "5", "--n", "1"]) == 2
    both = "error: --c and --d: only used by --identity symmetry or all\n"
    assert capsys.readouterr().err == both
    assert main(["verify", "--identity", "double-index", "--preset", "euler", "--m-max", "1",
                 "--d", "5", "--n", "1"]) == 2
    assert capsys.readouterr().err == D_UNUSED


@pytest.mark.parametrize("identity", [i.value for i in IdentityId] + ["all"])
def test_negative_n_names_n_max_for_every_verifier(identity, capsys):
    # Every verifier checks n first, so the error names n_max, not a table
    # or series order, on a unit-alpha preset too.
    assert main(["verify", "--identity", identity, "--preset", "bernoulli", "--n", "-1"]) == 2
    assert capsys.readouterr().err == "error: n_max must be an int >= 0, got -1\n"


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--preset", "nope", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["expand", "--preset", "euler", "--n", "1", "--n", "2"], "--n"),
    (["expand", "--pre", "euler", "--preset", "euler", "--n", "1"], "--preset"),
    (["expand", "--n", "1", "--format", "json", "--format", "csv"], "--format"),
    (["verify", "--identity", "shift", "--n", "1", "--ident", "shift"], "--identity"),
    (["verify", "--n", "1", "--m-max", "1", "--m-max", "2"], "--m-max"),
    (["table", "--preset", "euler", "--n", "1", "--preset", "bernoulli"], "--preset"),
])
def test_a_flag_given_twice_exits_2_and_names_it(argv, flag, capsys):
    # The last value would otherwise win silently, even when both are equal.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: given more than once")


def test_an_unambiguous_abbreviation_is_the_flag_and_an_ambiguous_one_exits_2(capsys):
    # argparse abbreviations are kept: --pre is --preset, and --p names both candidates.
    assert main(["expand", "--preset", "euler", "--n", "2"]) == 0
    full = capsys.readouterr().out
    assert main(["expand", "--pre", "euler", "--n", "2"]) == 0
    assert capsys.readouterr().out == full
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--p", "euler", "--n", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ambiguous option: --p could match --preset, --phi" in err


def test_rationals_read_as_fraction_reads_them(capsys):
    # A decimal is read exactly, not as a float; nan is no rational and exits 2.
    argv = ["expand", "--r", "1", "--n", "3", "--format", "csv"]
    assert main([*argv, "--alphas=3/2"]) == 0
    exact = capsys.readouterr().out
    assert main([*argv, "--alphas=1.5"]) == 0
    assert capsys.readouterr().out == exact
    assert main([*argv, "--alphas=nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: not a rational number: 'nan'\n"


def test_exit_code_1_on_identity_failure(monkeypatch, capsys):
    x = MultiPoly.var(VarId.X)
    fake = Verdict(IdentityId.SHIFT, PRESETS["euler"], 3, False,
                   Counterexample((2,), x, x + 1))
    monkeypatch.setattr("apostol.identities.verify_shift", lambda spec, n, **kwargs: fake)
    rc = main(["verify", "--identity", "shift", "--preset", "euler", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.splitlines() == [
        "shift: FAIL at n=2",
        "  lhs = x",
        "  rhs = x + 1",
    ]


def test_a_patched_verifier_is_run_by_verify_all_and_by_the_cli(monkeypatch, capsys):
    # The verifiers are looked up when they run, so both paths reach the patch.
    calls = []

    def fake(spec, c, d, n_max, **kwargs):
        calls.append((c, d, n_max))
        return Verdict(IdentityId.SYMMETRY, spec, n_max, True)

    monkeypatch.setattr(identities_mod, "verify_symmetry", fake)
    assert verify_all(PRESETS["euler"], 2)[-1] == Verdict(IdentityId.SYMMETRY,
                                                         PRESETS["euler"], 2, True)
    assert main(["verify", "--identity", "symmetry", "--preset", "euler", "--c", "5",
                 "--n", "1"]) == 0
    assert capsys.readouterr().out == "symmetry: PASS\n"
    assert calls == [(2, 3, 2), (5, 3, 1)]


def test_render_verdict_double_index_names_both_indices():
    x = MultiPoly.var(VarId.X)
    v = Verdict(IdentityId.DOUBLE_INDEX, PRESETS["euler"], 3, False,
                Counterexample((1, 2), x, -x))
    assert render_verdict(v).splitlines()[0] == "double-index: FAIL at n=1, m=2"


def test_custom_flags_match_presets(capsys):
    assert main(["expand", "--r", "1", "--k", "0", "--alphas", "-1",
                 "--a", "1", "--b", "e", "--phi", "unit", "--n", "3"]) == 0
    explicit = capsys.readouterr().out
    assert main(["expand", "--preset", "euler", "--n", "3"]) == 0
    preset = capsys.readouterr().out
    assert explicit == preset


def test_negative_alpha_list_with_equals_syntax(capsys):
    assert main(["expand", "--r", "2", "--k", "1", "--alphas=-1,3",
                 "--a", "1", "--b", "e", "--n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "2,-1/2"


def test_explicit_default_flags_change_nothing(capsys):
    runs = [
        (["expand", "--phi", "gould-hopper", "--n", "3"],
         ["expand", "--phi", "gould-hopper", "--m", "2", "--k", "0", "--a", "1", "--b", "e",
          "--n", "3"]),
        (["table", "--preset", "laguerre", "--n", "3"],
         ["table", "--preset", "laguerre", "--m", "1", "--n", "3"]),
        # The kinds' own defaults, which the presets' explicit steps do not read.
        (["expand", "--phi", "laguerre", "--n", "3"],
         ["expand", "--phi", "laguerre", "--m", "1", "--n", "3"]),
        (["expand", "--phi", "truncated-exp", "--n", "3"],
         ["expand", "--phi", "truncated-exp", "--m", "2", "--n", "3"]),
        (["verify", "--preset", "euler", "--n", "2"],
         ["verify", "--identity", "all", "--preset", "euler", "--c", "2", "--d", "3",
          "--m-max", "2", "--n", "2"]),
    ]
    for implicit, explicit in runs:
        assert main(implicit) == 0
        first = capsys.readouterr().out
        assert main(explicit) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["expand", "verify", "table"])
def test_help_names_each_step_default_from_the_tables(command, monkeypatch, capsys):
    if command == "table":
        # The presets whose table takes --m, found by asking the CLI.
        named = []
        for name in sorted(PRESETS):
            if main(["table", "--preset", name, "--m", "1", "--n", "0"]) == 0:
                named.append((name, PRESETS[name].phi))
        capsys.readouterr()
        assert named
    else:
        named = [(kind, Phi(kind)) for kind, (param, *_) in PHI_KINDS.items() if param]
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option, no wrapping
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    m_help = next(line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("--m M "))
    for name, phi in named:
        assert f"{name} {PHI_KINDS[phi.kind][0]}={phi.step}" in m_help, (name, m_help)


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_help_names_each_spec_default_from_the_euler_preset(command, monkeypatch, capsys):
    # Absent spec flags take the Euler preset's values, and --c/--d take
    # identities.AUXILIARY's defaults; the help must follow both when they change.
    other = FamilySpec(2, 1, LogBase.E, LogBase.ONE, (Fraction(-1), Fraction(1, 2)),
                       Phi("laguerre"))
    monkeypatch.setitem(PRESETS, "euler", other)
    monkeypatch.setitem(identities_mod.AUXILIARY, "c", Fraction(5, 7))
    monkeypatch.setitem(identities_mod.AUXILIARY, "d", -4)
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option, no wrapping
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    expected = [
        "order r (number of alphas); default family is r=2, alphas=-1,1/2",
        "power-of-t twist k (default 1)",
        "base a: 1, e or sym (default e)",
        "base b: 1, e or sym (default 1)",
        "two-variable polynomial layer (default laguerre)",
    ]
    if command == "verify":
        expected += ["first symmetry scalar (default 5/7)", "second symmetry scalar (default -4)"]
    for text in expected:
        assert text in out, (text, out)


def test_table_latex_carries_the_preset_note(capsys):
    assert main(["table", "--preset", "euler", "--n", "1", "--format", "latex"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "% apostol-euler(r=1, lambda=1)",
        f"% {TABLE_PRESET_NOTES['euler']}",
        r"\begin{tabular}{rl}",
    ]


SYM_SYM_FLAGS = ["--r", "2", "--alphas=2,-3", "--a", "sym", "--b", "sym",
                 "--phi", "gould-hopper", "--m", "2"]
SYM_SYM_SPEC = FamilySpec(2, 0, LogBase.SYMBOLIC_A, LogBase.SYMBOLIC_B,
                          (Fraction(2), Fraction(-3)), GouldHopper(2))


@pytest.mark.parametrize("flags, spec", [
    *((["--preset", name], spec) for name, spec in sorted(PRESETS.items())),
    (SYM_SYM_FLAGS, SYM_SYM_SPEC),
], ids=[*sorted(PRESETS), "sym-sym"])
def test_verify_all_prints_what_verify_all_returns(flags, spec, capsys):
    # verify --identity all prints what identities.verify_all returns, line for line.
    main(["verify", "--identity", "all", *flags, "--n", "4"])
    expected = "".join(render_verdict(v) + "\n" for v in verify_all(spec, 4))
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("identity", [i.value for i in IdentityId])
def test_a_single_identity_builds_only_its_own_tables(monkeypatch, capsys, identity):
    # Only verify_all shares tables; a single --identity builds what its
    # verifier reads, at n.  Only double-index reads past n, to n + m_max:
    # P(x+z) and P(x), each as a member stream.
    sizes = []
    for name in ("unified_members", "_members"):
        build = getattr(identities_mod, name)

        def logged(of, *n, _build=build, **kwargs):
            sizes.append((kwargs.get("exp_argument"), n[-1]))
            return _build(of, *n, **kwargs)

        monkeypatch.setattr(identities_mod, name, logged)
    double = identity == IdentityId.DOUBLE_INDEX.value
    m_max = ["--m-max", "2"] if double else []
    assert main(["verify", "--identity", identity, *SYM_SYM_FLAGS, "--n", "3", *m_max]) == 0
    assert capsys.readouterr().out == f"{identity}: PASS\n"
    if double:
        x_plus_z = MultiPoly.var(VarId.X) + MultiPoly.var(VarId.Z)
        assert sorted(sizes, key=lambda size: size[1]) == [(x_plus_z, 5), (None, 5)]
    else:
        assert sizes and {n for _, n in sizes} == {3}
