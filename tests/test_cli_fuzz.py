"""A grammar-driven fuzz of the CLI exit-code contract.

Each example is an argv for expand, verify or table, run in process through
cli.main.  Expand and verify take their family from --preset or from the
family flags, and from both at once (a usage error) in a small share of
examples.  Every flag is present or absent and takes values from its valid
pool, except at most one, which takes them from its malformed pool; each is
written as `--flag value` or `--flag=value`, and may be abbreviated, and at
most one is repeated.  So most examples are well formed, and an argv that
runs (exit 0 or 1) must print the same with every absent flag given its
default explicitly.  Sizes stay small (n <= 3, at most three alphas,
--m-max <= 2), so each example is cheap; the contract does not cover
resource use, so no example is large on purpose.  An index above the ring's
MAX_DEGREE is malformed: it exits 2 before any table is built.  Every
malformed value of every flag is also run once, deterministically, in the
context that reads it.
"""

from __future__ import annotations

import argparse
import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from apostol import cli
from apostol.cli import build_parser, main
from apostol.family import PRESETS
from apostol.identities import IdentityId
from apostol.polyring import MAX_DEGREE
from apostol.series import NotAUnitError

# The values a rational flag must refuse (or read exactly, as ' 2' and '٣').
BAD_RATIONALS = ["", "1/0", "nan", "inf", "2/-3", " 2", "٣", "1,,2"]
BAD_INTS = ["", "-1", "x", "1/2", " 2", "٣"]
# Indices no table can hold: refused before anything is built.
HUGE_INDICES = [str(MAX_DEGREE + 1), str(10**20)]
PRESET = (sorted(PRESETS), ["", "Euler"])
INDEX = (["0", "1", "2", "3"], [*BAD_INTS, *HUGE_INDICES])
FORMAT = (["json", "csv", "latex"], ["", "xml"])
STEP = (["1", "2", "3"], ["0", *BAD_INTS])
# The family flags: --preset cannot be combined with any of them.
FAMILY = {
    "--k": (["0", "1", "2"], BAD_INTS),
    "--alphas": (["-1", "1", "1/2", "2,-3", "1,5/7", "1,1", "-1,-1", "2,-3,1/2"], BAD_RATIONALS),
    "--a": (["1", "e", "sym"], ["", "E", "2"]),
    "--b": (["1", "e", "sym"], ["", "E", "2"]),
    "--phi": (["unit", "gould-hopper", "laguerre", "truncated-exp"], ["", "gauss", "hermite"]),
    "--m": STEP,
}
SPEC = {"--preset": PRESET, **FAMILY}
SCALAR = (["2", "3", "1/2", "-5"], ["0", *BAD_RATIONALS])
# Each command's flags with their (valid, malformed) value pools.
POOLS = {
    "expand": {**SPEC, "--n": INDEX, "--format": FORMAT},
    "verify": {**SPEC, "--n": INDEX, "--m-max": (["0", "1", "2"], [*BAD_INTS, *HUGE_INDICES]),
               "--identity": ([i.value for i in IdentityId] + ["all"], ["", "Shift"]),
               "--c": SCALAR, "--d": SCALAR},
    "table": {"--preset": PRESET, "--n": INDEX, "--m": STEP, "--format": FORMAT},
}
# Drawn more often than the others: --n, which every command needs, and --preset,
# which table needs and which names the family in its branch of expand and verify.
REQUIRED = {"--n", "--preset"}
# The default --m of each phi kind that takes one, and of each table preset that takes one.
STEP_DEFAULTS = {"gould-hopper": "2", "laguerre": "1", "truncated-exp": "2"}
TABLE_STEP_DEFAULTS = {"gould-hopper": "3", "laguerre": "1", "truncated-exp": "2"}
ERROR_LINE = re.compile(r"^(apostol( \w+)?: )?error: ", re.M)


def _option_strings(command: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [s for action in sub.choices[command]._actions for s in action.option_strings]


OPTIONS = {command: _option_strings(command) for command in POOLS}


def _resolve(command: str, written: str) -> str:
    """The flag argparse reads written as: itself, or the one flag it abbreviates."""
    if written in OPTIONS[command]:
        return written
    (flag,) = [o for o in OPTIONS[command] if o.startswith(written)]
    return flag


def _shortest(command: str, flag: str) -> str:
    """The shortest prefix of flag that no other flag of the command starts with."""
    others = [o for o in OPTIONS[command] if o != flag]
    return next(flag[:i] for i in range(3, len(flag) + 1)
                if flag[:i] == flag or not any(o.startswith(flag[:i]) for o in others))


@st.composite
def invocations(draw):
    """(command, [(written flag, value, as --flag=value)]) for one argv."""
    command = draw(st.sampled_from(sorted(POOLS)))
    pools = POOLS[command]
    branch = draw(st.integers(0, 7))  # 0-2: --preset; 3-6: the family flags; 7: both, a conflict
    if command != "table" and branch < 7:
        drop = FAMILY if branch < 3 else {"--preset"}
        pools = {flag: pool for flag, pool in pools.items() if flag not in drop}
    # At most one flag takes malformed values and at most one is repeated, in a
    # fifth and a tenth of the examples, so that most reach the command.
    bad = draw(st.sampled_from(sorted(pools))) if draw(st.integers(0, 4)) == 4 else None
    twice = draw(st.sampled_from(sorted(pools))) if draw(st.integers(0, 9)) == 9 else None
    items = []
    for flag, (valid, malformed) in pools.items():
        if flag not in (bad, twice) and draw(st.integers(0, 7)) >= (7 if flag in REQUIRED else 2):
            continue
        for _ in range(2 if flag == twice else 1):
            value = draw(st.sampled_from(malformed if flag == bad else valid))
            cut = draw(st.integers(3, len(flag))) if draw(st.integers(0, 2)) == 0 else len(flag)
            items.append((flag[:cut], value, draw(st.booleans())))
    return command, draw(st.permutations(items))


def _argv(command: str, items) -> list[str]:
    argv = [command]
    for written, value, joined in items:
        argv += [f"{written}={value}"] if joined else [written, value]
    return argv


def _explicit_defaults(command: str, given: dict[str, str]) -> list[str]:
    """--flag=value for every flag absent from given (flag: value) that the command reads."""
    defaults = {}
    if command == "table":
        defaults["--m"] = TABLE_STEP_DEFAULTS.get(given["--preset"])
    elif "--preset" not in given:  # each spec flag takes the Euler preset's value
        defaults.update({"--alphas": "-1", "--k": "0", "--a": "1", "--b": "e", "--phi": "unit"})
        defaults["--m"] = STEP_DEFAULTS.get(given.get("--phi", "unit"))
    if command == "verify":
        identity = defaults["--identity"] = given.get("--identity", "all")
        if identity in ("symmetry", "all"):
            defaults.update({"--c": "2", "--d": "3"})
        if identity in ("double-index", "all"):
            defaults["--m-max"] = given["--n"]
    else:
        defaults["--format"] = "json"
    return [f"{flag}={value}" for flag, value in defaults.items()
            if flag not in given and value is not None]


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_pools_cover_every_flag_of_every_command():
    for command, pools in POOLS.items():
        assert set(pools) == set(OPTIONS[command]) - {"-h", "--help"}, command


def test_shortest_prefixes_are_the_unambiguous_ones():
    assert [_shortest("verify", f) for f in ("--preset", "--phi", "--m", "--m-max", "--alphas",
                                             "--a", "--identity")] == [
        "--pr", "--ph", "--m", "--m-", "--al", "--a", "--i"]
    assert _shortest("table", "--preset") == "--p"


@settings(max_examples=150, deadline=None, database=None)
@given(invocations())
def test_every_argv_keeps_the_exit_code_contract(invocation):
    command, items = invocation
    code, out, err = _run(_argv(command, items))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert ERROR_LINE.search(err), err
    if code == 0:
        shortest = [(_shortest(command, _resolve(command, w)), v, j) for w, v, j in items]
        assert _run(_argv(command, shortest))[:2] == (0, out)
    if code in (0, 1):  # an absent flag reads as its default given explicitly
        given = {_resolve(command, w): v for w, v, _ in items}
        explicit = _argv(command, items) + _explicit_defaults(command, given)
        assert _run(explicit)[:2] == (code, out), explicit


# The flags each flag is read with, so that its malformed values reach its own check.
SPEC_CONTEXT = {"--m": ["--phi=gould-hopper"]}
CONTEXT = {
    "expand": SPEC_CONTEXT,
    "verify": {**SPEC_CONTEXT, "--m-max": ["--identity=double-index"],
               "--c": ["--identity=symmetry"], "--d": ["--identity=symmetry"]},
    "table": {"--preset": [], "--n": ["--preset=euler"], "--m": ["--preset=gould-hopper"],
              "--format": ["--preset=euler"]},
}
# The malformed values read exactly, as the ints and rationals they spell.
READ_EXACTLY = {" 2": "2", "٣": "3"}
# The flags the CLI parses itself, whose errors name them.
SELF_PARSED = {"--alphas", "--a", "--b", "--c", "--d"}


def test_every_malformed_value_of_every_flag_exits_2_in_its_context():
    # The random fuzz draws one malformed flag per example, so a flag's check
    # may go unreached for a whole run; here every (command, flag, value) is run.
    for command, pools in POOLS.items():
        for flag, (_, malformed) in pools.items():
            head = [command, *CONTEXT[command].get(flag, []), *([] if flag == "--n" else ["--n=2"])]
            for value in malformed:
                code, out, err = _run([*head, f"{flag}={value}"])
                if value in READ_EXACTLY:
                    assert (code, out, err) == _run([*head, f"{flag}={READ_EXACTLY[value]}"])
                else:
                    assert (code, out) == (2, ""), (head, flag, value)
                    assert ERROR_LINE.search(err), (head, flag, value, err)
                    if flag in SELF_PARSED:
                        assert f"error: {flag}: " in err, (head, flag, value, err)


@pytest.mark.parametrize("error", [KeyError, NotAUnitError])
def test_a_key_error_inside_a_command_propagates(monkeypatch, error):
    # No argv reaches a KeyError or a SeriesError, so one raised inside a command is
    # an internal fault: it surfaces as a traceback, as every error but bad input does.
    def failing(spec, n_max):
        raise error("raised inside expand")

    monkeypatch.setattr(cli, "extract_table", failing)
    with pytest.raises(error, match="raised inside expand"):
        main(["expand", "--n", "1"])


@pytest.mark.parametrize("argv,flag", [
    (["expand", "--preset", "euler", "--n", str(10**20)], "--n"),
    (["expand", "--preset", "euler", "--n", str(MAX_DEGREE + 1)], "--n"),
    (["table", "--preset", "hermite", "--n", str(10**20)], "--n"),
    (["verify", "--preset", "euler", "--n", str(10**20)], "--n"),
    (["verify", "--preset", "euler", "--n", "3", "--m-max", str(10**20)], "--m-max"),
    (["verify", "--preset", "euler", "--n", str(MAX_DEGREE // 2 + 1)], "--m-max"),  # m_max = n
])
def test_an_index_no_table_can_hold_exits_2_at_once(argv, flag, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("extract_table", "general_members", "verify_all", "verify_identity"):
        monkeypatch.setattr(cli, name, build)
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err.splitlines()[0], err
