"""CLI runs on specs no golden command covers: symbolic bases, edge bounds, unit alphas.

Each case is an argv of `apostol verify` that must exit 0 with a PASS on
every printed line, one line per identity checked.  Every `apostol` line of
README's CLI block must exit 0 too.  The last test checks the installed
script's entry point and exit code without installing it.
"""

from __future__ import annotations

import importlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from apostol import cli
from apostol.cli import main

ROOT = Path(__file__).resolve().parent.parent
SYM_SYM = "--a sym --b sym --alphas=2,-3 --phi gould-hopper"

# (reason, argv of `apostol verify`)
PASSING = [
    ("double-index at the m_max = 0 edge of its pair map",
     f"--identity double-index {SYM_SYM} --n 5 --m-max 0"),
    ("double-index at the n = 0 edge of its pair map",
     f"--identity double-index {SYM_SYM} --n 0 --m-max 5"),
    ("symbolic bases with fractional and negative symmetry scalars",
     f"--identity symmetry {SYM_SYM} --n 12 --c 1/2 --d -5"),
    ("symbolic bases",
     f"--identity all {SYM_SYM} --n 8"),
    ("fractional alphas, where n! cancels most of each member's denominator",
     "--identity all --a sym --b sym --alphas=1/2,5/7 --phi truncated-exp --n 10"),
    ("r = 3, where the denominator sums four exponentials",
     "--identity all --a sym --b sym --alphas=2,-3,1/2 --phi gould-hopper --n 6"),
    ("m_max above n_max: the shared P(x) and P(x+z) tables are over twice n_max wide",
     f"--identity all {SYM_SYM} --n 4 --m-max 6"),
    ("unit alphas (Bernoulli-type factors): the core's denominator is one order deeper "
     "per unit alpha",
     "--identity all --k 1 --alphas=1,1 --phi gould-hopper --n 6"),
    ("unit alphas mixed with a non-unit one",
     "--identity all --k 1 --alphas=1,5/7,1 --phi truncated-exp --n 5"),
]


@pytest.mark.parametrize("reason, argv", PASSING, ids=[reason for reason, _ in PASSING])
def test_verify_passes_every_identity_it_checks(reason, argv, capsys):
    assert main(["verify", *argv.split()]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == (7 if "--identity all" in argv else 1)
    assert all(line.endswith(": PASS") for line in lines), out
    assert err == ""


def test_symbolic_bases_expand_to_json_and_latex(capsys):
    # No golden file covers them: the JSON terms use only the documented
    # keys, la and lb among them, and LaTeX spells both logs.
    argv = ["expand", *SYM_SYM.split(), "--n", "3", "--format"]
    assert main([*argv, "json"]) == 0
    keys = {key for entry in json.loads(capsys.readouterr().out)["entries"]
            for term in entry["terms"] for key in term}
    assert {"la", "lb"} <= keys <= {"coeff", "x", "y", "z", "la", "lb"}
    assert main([*argv, "latex"]) == 0
    latex = capsys.readouterr().out
    assert r"\log a" in latex and r"\log b" in latex


def _readme_examples() -> list[str]:
    """The `apostol ...` lines of the code block under README's ## CLI heading."""
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line for line in block.group(1).splitlines() if line.startswith("apostol ")]


@pytest.mark.parametrize("line", _readme_examples())
def test_every_readme_example_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_the_console_script_is_cli_run_and_exits_2_on_a_bad_bound(monkeypatch, capsys):
    # The installed `apostol` script calls the [project.scripts] entry, which
    # resolves to apostol.cli.run.  pyproject.toml is read without tomllib,
    # which Python 3.10 lacks.  run() exits with main's code and the error
    # on stderr, as the script does.
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^(\S+) = "([^"]+)"$', section.group(1), re.M))
    module, attr = scripts["apostol"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
    monkeypatch.setattr(sys, "argv", ["apostol", "expand", "--preset", "euler", "--n", "-1"])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error: n_max must be an int >= 0")
