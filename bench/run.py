"""The apostol benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``apostol`` is imported from that
checkout's ``src/``.  Workloads and metrics are described in
``bench/README.md``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  Every op's output is checked; a run whose checks fail prints
``"correct": false``.  The exit code is nonzero, with no result line, when
the checkout has no ``src/apostol`` or a worker process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from worker import REF_S, WORKLOADS, src_env  # noqa: E402

SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
DEADLINE_S = 170
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.env = src_env(root)
        self.base = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
                     "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        self.deadline = perf_counter() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"out of time ({DEADLINE_S} s)")
        return left

    def worker(self, *extra: str) -> tuple[float, dict | None]:
        """Start a worker; return seconds until it was ready, and its result."""
        t0 = perf_counter()
        proc = subprocess.Popen(self.base + list(extra), cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            ready_s = perf_counter() - t0
            rest, _ = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.communicate()
            raise BenchError("a worker ran past the deadline") from None
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
        lines = rest.strip().splitlines()
        return ready_s, json.loads(lines[-1]) if lines else None

    def child_python(self, code: str) -> tuple[float, str]:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=self.remaining())
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"python -c {code!r} failed: {proc.stderr.strip()[-300:]}")
        return wall, proc.stdout.strip()


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND ops beyond it."""
    s = sorted(durations)
    beyond = min(TAIL_BEYOND, len(s) - 1)
    return s[len(s) - 1 - beyond], 100 * (len(s) - beyond) / len(s), beyond


def steady(durations: list[float], refs: list[float]) -> list[float]:
    """Op times at the reference speed.

    refs[i] and refs[i + 1] are the reference loop's times just before and
    just after op i; the op is scaled by REF_S over their mean.
    """
    return [d * 2 * REF_S / (before + after)
            for d, before, after in zip(durations, refs, refs[1:])]


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def end_to_end(runner: Runner) -> tuple[dict, dict, list[str]]:
    setups, raw_setups, spawn_s = [], [], []
    for _ in range(SETUP_SAMPLES):
        ready_s, probe = runner.worker("--probe")
        spawn_s.append(ready_s)
        raw_setups.append(probe["setup_s"])
        setups.append(probe["setup_s"] * REF_S / statistics.median(probe["refs"]))
    _, res = runner.worker()
    raw = res["durations"]
    d = steady(raw, res["refs"])
    tail_s, pct, beyond = tail(d)
    failed = len(res["failures"])
    metrics = {
        "op_s_p50": (statistics.median(d), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw_values = {
        "op_s_p50": statistics.median(raw),
        "op_s_tail": tail(raw)[0],
        "ops_per_s": len(raw) / sum(raw),
        "setup_s": statistics.median(raw_setups),
    }
    notes = {
        "op_s_tail": f"p{pct:.1f} of {len(d)} ops, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"{statistics.median(spawn_s):.6g} s with interpreter start-up",
        "ops_per_s": f"{len(d)} ops in {sum(raw):.3f} s of timed loop",
    }
    lines = [f"reference loop: median {statistics.median(res['refs']):.6g} s, "
             f"REF_S {REF_S} s; times below are at reference speed (raw wall time after /)"]
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" + (f" / {raw_values[name]:.6g}" if name in raw_values else "")
        lines.append(f"{name:<12} {shown} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    lines.append(f"{'failed_frac':<12} {failed / len(d):.6g}  ({failed} of {len(d)} ops)")
    lines.append(f"spec_repeat_frac {res['repeat_frac']:.4g}; _core_quotient "
                 + (f"hits {res['core_quotient']['hits']}, misses {res['core_quotient']['misses']}"
                    if res["core_quotient"] else "has no cache_info"))
    return res, metrics, lines


def per_layer(runner: Runner) -> tuple[dict, dict, list[str]]:
    interp = [runner.child_python("pass")[0] for _ in range(STARTUP_SAMPLES)]
    imports = [float(runner.child_python(
        "import time; t = time.perf_counter(); import apostol.cli; "
        "print(time.perf_counter() - t)")[1]) for _ in range(STARTUP_SAMPLES)]
    _, res = runner.worker("--trace")
    d = res["durations"]
    n = len(d)
    _, replay = runner.worker("--ops", str(n))
    res["failures"] += replay["failures"]
    res["attempted"] = n + len(replay["durations"])

    root = tracer.Node()
    root.merge(res["trace"]["tree"])
    counts = res["trace"]["counts"]
    layers = tracer.layer_totals(root)
    m: dict[str, tuple[float, str]] = {}
    self_sum = 0.0
    for name, acc in layers.items():
        self_sum += acc["self_s"]
        if name.startswith("identities."):
            m[f"{name}.self_s"] = (acc["self_s"] / n, "s/op")
            m[f"{name}.expand_s"] = (acc["expand_s"] / n, "s/op")
            m[f"{name}.convolve_s"] = ((acc["total_s"] - acc["expand_s"]) / n, "s/op")
        elif name == "cli.render":
            m["cli.render.self_s"] = (acc["self_s"] / n, "s/op")
            m["cli.render.bytes"] = (counts.get("cli.render.bytes", 0) / n, "B/op")
        else:
            m[f"{name}.calls"] = (acc["calls"] / n, "count/op")
            m[f"{name}.self_s"] = (acc["self_s"] / n, "s/op")
    m["polyring.mul.term_products"] = (counts.get("polyring.mul.term_products", 0) / n, "count/op")
    if res["core_quotient"] is not None:
        m["family.core_quotient.hits"] = (res["core_quotient"]["hits"] / n, "count/op")
        m["family.core_quotient.misses"] = (res["core_quotient"]["misses"] / n, "count/op")
    m["family.out_terms"] = (counts.get("family.out_terms", 0) / n, "count/op")
    m["family.max_coeff_bits"] = (res["trace"]["max_coeff_bits"], "bits")
    m["cli.import_s"] = (statistics.median(imports), "s")
    m["cli.interpreter_s"] = (statistics.median(interp), "s")
    traced_s = sum(d)
    unattributed = root.total - self_sum
    m["trace.op_s"] = (traced_s / n, "s/op")
    m["trace.unattributed_s"] = (unattributed / n, "s/op")
    m["trace.overhead_s"] = ((traced_s - sum(replay["durations"])) / n, "s/op")
    m["trace.ops"] = (n, "count")
    m["workload.spec_repeat_frac"] = (res["repeat_frac"], "frac")
    m["repo.src_lines"] = (src_lines(runner.root), "lines")

    # Self times are disjoint pieces of the op time: none is negative, and
    # with the unattributed rest they add up to the traced op time.
    negative = [k for k, (v, _) in m.items() if k.endswith("self_s") and v < -1e-9]
    if negative or unattributed < -1e-9 or len(replay["durations"]) != n:
        res["problems"] = [f"inconsistent trace: negative self time in {negative}, "
                           f"unattributed {unattributed:.3g} s, replay "
                           f"{len(replay['durations'])} of {n} ops"]
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in m.items()]
    lines.append(f"self times + unattributed = {self_sum + unattributed:.6f} s; "
                 f"traced op time {root.total:.6f} s over {n} ops")
    return res, m, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one apostol benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    needed = [root / "src" / "apostol" / "__init__.py", root / "tests" / "test_cli.py"]
    missing = [str(path.relative_to(root)) for path in needed if not path.is_file()]
    if missing:
        print(f"error: run from the root of an apostol checkout; missing {missing}",
              file=sys.stderr)
        return 2

    # One CPU for the workers and their subprocesses, so that the reference
    # loop runs on the CPU the ops run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        _, sub_file = runner.child_python("import apostol; print(apostol.__file__)")
        if not Path(sub_file).resolve().is_relative_to(root / "src"):
            raise BenchError(f"subprocesses import apostol from {sub_file}")
        res, metrics, lines = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"apostol {res['apostol_file']} (workers), {sub_file} (subprocesses)")
    print(f"python {platform.python_version()}, nproc {len(cpus)}, workers pinned to CPU {min(cpus)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    problems = res.get("problems", [])
    for failure in res["failures"][:10] + problems:
        print(f"FAILED {failure}")
    attempted = res.get("attempted", len(res["durations"]))
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
