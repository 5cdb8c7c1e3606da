"""The workload process: seeded inputs, the timed closed loop, and output checks.

Run by ``run.py`` in a fresh interpreter, one client, no threads:

    python3 bench/worker.py --root CHECKOUT --workload NAME --seed N --seconds S
        [--probe] [--trace] [--ops N]

It imports ``apostol`` from ``CHECKOUT/src``, builds the seeded inputs and
prints ``ready``.  ``--probe`` then times ``reference()`` three times and
exits (``run.py`` times set-up that way).  Otherwise it runs the whole
rounds of ops that fill S seconds at the reference speed (or exactly N ops
with ``--ops``), times ``reference()`` before the first op and after each
op, checks every output outside the timed region, and prints one JSON
result line.  ``--trace`` wraps the package with ``tracer.Tracer`` for the
per-layer run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from math import ceil, comb
from pathlib import Path
from time import perf_counter

import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
SCHEDULE_LEN = 2048
CLI_TIMEOUT_S = 60
# Typical wall time of reference() on the 2-vCPU Xeon host the bounds were set on.
REF_S = 0.02


def reference() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with apostol.

    It multiplies two dict polynomials with Fraction coefficients, the kind
    of work MultiPoly does, so it slows down with the host as the ops do.
    Timed before and after each op, it turns op times into times at a
    steady speed.
    """
    t0 = perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return perf_counter() - t0


def load_apostol(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import apostol
    import apostol.cli  # noqa: F401  (the cli layer is traced and timed too)

    if not Path(apostol.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"apostol imported from {apostol.__file__}, not from {src}")
    return apostol


def src_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: apostol comes from this checkout only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str((root / "src").resolve())
    return env


def _rounds(rng: random.Random, cells: list, *factors: tuple) -> list[tuple]:
    """Seed-shuffled rounds, so that every run sees the same mix.

    Each round visits every cell once, in a shuffled order, and hands out
    each factor's levels equally often (the number of cells must be a
    multiple of each factor's level count).  Entries are (cell, level, ...).
    The timed loop stops only at the end of a round.
    """
    out: list[tuple] = []
    while len(out) < SCHEDULE_LEN:
        batch = list(cells)
        rng.shuffle(batch)
        columns = []
        for levels in factors:
            assert len(batch) % len(levels) == 0, (len(batch), len(levels))
            column = list(levels) * (len(batch) // len(levels))
            rng.shuffle(column)
            columns.append(column)
        out.extend(zip(batch, *columns))
    return out


# -- workloads ------------------------------------------------------------------
#
# Each workload has key(i), run(i) and check(i, output); check returns None on
# success or a one-line reason.  run(i) is the timed op; key(i) names its
# input, so repeated inputs can be counted.  ops is the schedule, in rounds
# of round_len ops; ROUND_S is the time one round took at the reference
# speed when the workload was defined, and sets how many rounds a run makes.

NON_UNIT_ALPHAS = [Fraction(v) for v in ("2", "-3", "1/2", "5/7", "-2/3", "3/4", "4", "-5/2")]


class VerifyAllSym:
    """verify_all on symbolic bases, r=2, GouldHopper(2), n = m_max = 6, c=2, d=3.

    A round pairs each alpha of the pool, as the first alpha, with a
    shuffled second alpha, so each alpha takes each place once per round.
    """

    N = 6
    ROUND_S = 4.5

    def __init__(self, ap, seed: int):
        self.ap = ap
        f = ap.family
        self.round_len = len(NON_UNIT_ALPHAS)
        self.ops = [
            f.FamilySpec(2, 0, f.LogBase.SYMBOLIC_A, f.LogBase.SYMBOLIC_B, (a1, a2),
                         f.GouldHopper(2))
            for a1, a2 in _rounds(random.Random(seed), NON_UNIT_ALPHAS, NON_UNIT_ALPHAS)
        ]

    def key(self, i):
        return self.ops[i]

    def run(self, i):
        return self.ap.identities.verify_all(self.ops[i], self.N, c=2, d=3, m_max=self.N)

    def check(self, i, verdicts):
        ids = [v.identity for v in verdicts]
        if sorted(x.value for x in ids) != sorted(x.value for x in self.ap.IdentityId):
            return f"verdicts cover {ids}, not every identity"
        failed = [v.identity.value for v in verdicts if not v.passed]
        return f"FAIL verdicts: {failed}" if failed else None


class VerifyEachSym:
    """One single-index verifier per op on symbolic bases, r in {1,2}, n=12.

    A round of 42 ops runs every verifier on every phi with r=1 and r=2, the
    things that set an op's cost, so every run has the same cost profile;
    the seed draws the order and the alphas, each of seven pool alphas six
    times per round as the first alpha and six times as the second.  symmetry, the
    slowest verifier, has two slots, so a run's ten slowest ops lie well
    inside its cluster and the tail does not sit on the edge between two
    clusters.
    """

    N = 12
    ROUND_S = 10.7
    VERIFIERS = ["series-def", "shift", "shift-mixed", "shift-one", "shift-general",
                 "symmetry", "symmetry"]

    def __init__(self, ap, seed: int):
        self.ap = ap
        rng = random.Random(seed)
        f = ap.family
        phis = [f.Unit(), f.GouldHopper(2), f.TruncatedExp(2)]
        cells = [(slug, phi, r) for slug in self.VERIFIERS for phi in phis for r in (1, 2)]
        self.round_len = len(cells)
        pool = NON_UNIT_ALPHAS[:7]
        self.ops = []
        for (slug, phi, r), a1, a2 in _rounds(rng, cells, pool, pool):
            alphas = (a1, a2)[:r]
            spec = f.FamilySpec(r, 0, f.LogBase.SYMBOLIC_A, f.LogBase.SYMBOLIC_B, alphas, phi)
            self.ops.append((slug, spec))

    def key(self, i):
        return self.ops[i]

    def run(self, i):
        slug, spec = self.ops[i]
        ids = self.ap.identities
        if slug == "symmetry":
            return ids.verify_symmetry(spec, 2, 3, self.N)
        fn = {
            "series-def": ids.verify_series_def,
            "shift": ids.verify_shift,
            "shift-mixed": ids.verify_shift_mixed,
            "shift-one": ids.verify_shift_one,
            "shift-general": ids.verify_shift_general,
        }[slug]
        return fn(spec, self.N)

    def check(self, i, verdict):
        slug = self.ops[i][0]
        if verdict.identity.value != slug:
            return f"verdict for {verdict.identity.value}, expected {slug}"
        return None if verdict.passed else f"{slug}: FAIL"


class ExpandDeep:
    """extract_table + cli.render_table at n=48 for classical (1, e) specs.

    The check rebuilds each table on an independent path: the classical
    oracle (built from its own generating function, scaled to the unified
    normalization) binomially convolved with the phi coefficients
    general_members(phi, n, exp_argument=0).

    A round of 54 ops runs every family with every r, lambda and phi, the
    things that set an op's cost; the seed draws the order and hands each
    format to 18 of them.  Each _core_quotient key leaves phi out, so it is
    computed once per round and hit by the other two phis: every run sees
    the same share of hits.
    """

    N = 48
    ROUND_S = 15.7
    FAMILIES = ("bernoulli", "euler", "genocchi")
    LAMBDAS = [Fraction(v) for v in ("1", "5/7")]
    FORMATS = ("json", "csv", "latex")

    def __init__(self, ap, seed: int):
        self.ap = ap
        rng = random.Random(seed)
        f = ap.family
        phis = [f.Unit(), f.GouldHopper(2), f.Laguerre(1)]
        cells = [(fam, r, lam, phi) for fam in self.FAMILIES for r in (1, 2, 3)
                 for lam in self.LAMBDAS for phi in phis]
        self.round_len = len(cells)
        self.ops = [(*cell, fmt) for cell, fmt in _rounds(rng, cells, self.FORMATS)]
        self._oracles: dict = {}
        self._phi_coeffs: dict = {}

    def spec(self, fam, r, lam, phi):
        f = self.ap.family
        k, alpha = {"bernoulli": (1, lam), "euler": (0, -lam), "genocchi": (1, -lam)}[fam]
        return f.FamilySpec(r, k, f.LogBase.ONE, f.LogBase.E, (alpha,) * r, phi)

    def key(self, i):
        return self.ops[i]

    def run(self, i):
        fam, r, lam, phi, fmt = self.ops[i]
        table = self.ap.family.extract_table(self.spec(fam, r, lam, phi), self.N)
        return table, self.ap.cli.render_table(table, fmt)

    def expected(self, fam, r, lam, phi):
        f, MultiPoly = self.ap.family, self.ap.MultiPoly
        if (fam, r, lam) not in self._oracles:
            which, scale = {
                "bernoulli": (f.ClassicalFamily.APOSTOL_BERNOULLI, Fraction((-1) ** r)),
                "euler": (f.ClassicalFamily.APOSTOL_EULER, Fraction(1)),
                "genocchi": (f.ClassicalFamily.APOSTOL_GENOCCHI, Fraction(1, 2 ** r)),
            }[fam]
            table = f.special_case_oracle(which, r, lam, self.N)
            self._oracles[fam, r, lam] = [p * scale for _, p in table]
        if phi not in self._phi_coeffs:
            self._phi_coeffs[phi] = f.general_members(phi, self.N, exp_argument=MultiPoly.zero())
        oracle, g = self._oracles[fam, r, lam], self._phi_coeffs[phi]
        out = []
        for n in range(self.N + 1):
            acc = MultiPoly.zero()
            for j in range(n + 1):
                if g[j]:
                    acc = acc + oracle[n - j] * (g[j] * comb(n, j))
            out.append(acc)
        return out

    def check(self, i, output):
        fam, r, lam, phi, fmt = self.ops[i]
        table, text = output
        want = self.expected(fam, r, lam, phi)
        got = [p for _, p in table]
        if len(got) != len(want):
            return f"table has {len(got)} entries, expected {len(want)}"
        for n, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"P_{n} differs from the oracle"
        ref = self.ap.family.PolyTable(label=table.label, entries=tuple(enumerate(want)),
                                       spec=table.spec)
        if text != self.ap.cli.render_table(ref, fmt):
            return f"{fmt} rendering differs from the rendered oracle table"
        return None


def golden_manifest(root: Path) -> list[tuple[str, list[str]]]:
    """GOLDEN_MANIFEST from tests/test_cli.py, read without importing the test."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GOLDEN_MANIFEST" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py has no GOLDEN_MANIFEST")


class CliGolden:
    """``python -m apostol.cli`` in a subprocess per op, cycling the golden manifest."""

    ROUND_S = 2.2

    def __init__(self, ap, seed: int, root: Path, traced: bool = False):
        self.ap = ap
        manifest = golden_manifest(root)
        self.golden = {name: (root / "tests" / "golden" / name).read_bytes()
                       for name, _ in manifest}
        self.ops = [cell for cell, in _rounds(random.Random(seed), manifest)]
        self.round_len = len(manifest)
        self.env = src_env(root)
        self.cwd = root
        self.traced = traced

    def key(self, i):
        return self.ops[i][0]

    def run(self, i):
        _, argv = self.ops[i]
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "apostol.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.cwd, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def take_trace(self, output) -> dict | None:
        """The span dump a launcher wrote on its stderr, if any."""
        for line in output[2].decode(errors="replace").splitlines():
            if line.startswith(tracer_mod.TRACE_MARK):
                return json.loads(line[len(tracer_mod.TRACE_MARK):])
        return None

    def check(self, i, output):
        name, _ = self.ops[i]
        rc, out, err = output
        if rc != 0:
            return f"{name}: exit code {rc}: {err.decode(errors='replace')[-200:]}"
        if out != self.golden[name]:
            return f"{name}: stdout differs from tests/golden/{name}"
        return None


WORKLOADS = {
    "verify-all-sym": VerifyAllSym,
    "verify-each-sym": VerifyEachSym,
    "expand-deep": ExpandDeep,
    "cli-golden": CliGolden,
}


def build(name: str, ap, seed: int, root: Path, traced: bool):
    if name == "cli-golden":
        return CliGolden(ap, seed, root, traced)
    return WORKLOADS[name](ap, seed)


# -- the timed loop -----------------------------------------------------------


def core_cache_info(ap):
    info = getattr(getattr(ap.family, "_core_quotient", None), "cache_info", None)
    return info() if info is not None else None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--ops", type=int, help="run exactly this many ops instead")
    p.add_argument("--probe", action="store_true", help="exit once set-up is done")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    t0 = perf_counter()
    ap = load_apostol(args.root)
    wl = build(args.workload, ap, args.seed, args.root, args.trace)
    setup_s = perf_counter() - t0
    print("ready", flush=True)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "refs": [reference() for _ in range(3)]}), flush=True)
        return 0

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    cache_before = core_cache_info(ap)
    durations: list[float] = []
    refs = [reference()]
    failures: list[str] = []
    keys_seen: set = set()
    repeats = 0
    # A fixed number of whole rounds: enough to fill S seconds at the
    # reference speed, by each workload's ROUND_S, so that neither the
    # host's speed nor the seed changes which ops a run times.
    n_ops = args.ops if args.ops is not None else ceil(args.seconds / wl.ROUND_S) * wl.round_len
    # Checks run between ops, outside the timed region; this caps the wall time they add.
    wall_cap = perf_counter() + 4 * args.seconds
    i = 0
    while i < n_ops and (args.ops is not None or perf_counter() < wall_cap):
        j = i % len(wl.ops)
        output = error = None
        if tracer is not None:
            tracer.start()
        t0 = perf_counter()
        try:
            output = wl.run(j)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        dt = perf_counter() - t0
        refs.append(reference())
        if tracer is not None:
            tracer.stop(dt)
            if isinstance(wl, CliGolden) and output is not None:
                dump = wl.take_trace(output)
                if dump is not None:
                    tracer.merge(dump)
        durations.append(dt)
        if error is None:
            try:
                error = wl.check(j, output)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if error is not None:
            failures.append(f"op {i}: {error}")
        key = wl.key(j)
        repeats += key in keys_seen
        keys_seen.add(key)
        i += 1
        del output
    cache_after = core_cache_info(ap)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "apostol_file": ap.__file__,
        "durations": durations,
        "refs": refs,
        "failures": failures,
        "repeat_frac": repeats / len(durations),
        "core_quotient": None if cache_after is None else {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
        },
        "peak_rss_mb": max(rss_kb, children_kb) / 1024,
        "trace": tracer.dump() if tracer is not None else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
