"""Tracing must not change outputs, every layer must record work, and every
round of a workload must hold the same cost cells.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

ap = worker.load_apostol(ROOT)


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def traced_op(t: tracer.Tracer, wl, i: int):
    t.start()
    t0 = perf_counter()
    try:
        return wl.run(i)
    finally:
        t.stop(perf_counter() - t0)


IN_PROCESS = ["verify-all-sym", "verify-each-sym", "expand-deep"]


def test_install_patches_aliases_and_uninstall_restores():
    MultiPoly = ap.MultiPoly
    bound = [
        (MultiPoly, "__add__"), (MultiPoly, "__radd__"),
        (MultiPoly, "__mul__"), (MultiPoly, "__rmul__"),
        (ap.family, "unified_members"), (ap.identities, "unified_members"),
        (ap.family, "general_members"), (ap.cli, "general_members"), (ap, "general_members"),
        (ap.identities, "verify_shift"), (ap.cli, "verify_shift"),
        (ap.cli, "render_table"),
    ]
    before = [getattr(obj, name) for obj, name in bound]
    t = tracer.Tracer()
    t.install()
    try:
        for (obj, name), orig in zip(bound, before):
            now = getattr(obj, name)
            assert now is not orig and now.__wrapped__ is orig, name
    finally:
        t.uninstall()
    assert [getattr(obj, name) for obj, name in bound] == before


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_op_output_equals_untraced(name, traced):
    wl = worker.build(name, ap, 3, ROOT, traced=False)
    plain = wl.run(0)
    assert wl.check(0, plain) is None
    assert traced_op(traced, wl, 0) == plain


def test_traced_cli_op_output_equals_untraced():
    plain_wl = worker.CliGolden(ap, 3, ROOT, traced=False)
    traced_wl = worker.CliGolden(ap, 3, ROOT, traced=True)
    i = next(i for i, (name, _) in enumerate(plain_wl.ops) if name.startswith("verify_"))
    rc, out, _ = plain_wl.run(i)
    t_rc, t_out, t_err = traced_wl.run(i)
    assert (t_rc, t_out) == (rc, out)
    assert plain_wl.check(i, (rc, out, b"")) is None
    assert traced_wl.take_trace((t_rc, t_out, t_err)) is not None


def test_every_layer_records_work_and_self_times_add_up(traced):
    for name in IN_PROCESS:
        traced_op(traced, worker.build(name, ap, 5, ROOT, traced=False), 0)
    cli = worker.CliGolden(ap, 5, ROOT, traced=True)
    traced.start()
    t0 = perf_counter()
    output = cli.run(0)
    traced.stop(perf_counter() - t0)
    traced.merge(cli.take_trace(output))

    layers = tracer.layer_totals(traced.root)
    for prefix in ("polyring.", "series.", "family.", "identities.", "cli."):
        assert sum(v["calls"] for k, v in layers.items() if k.startswith(prefix)) > 0, prefix
    for counter in ("polyring.mul.term_products", "family.out_terms", "cli.render.bytes"):
        assert traced.counts[counter] > 0, counter
    assert traced.max_coeff_bits > 0

    self_times = [v["self_s"] for v in layers.values()]
    assert min(self_times) >= 0
    unattributed = traced.root.total - sum(self_times)
    assert unattributed >= 0
    assert unattributed < 0.5 * traced.root.total


def test_every_round_holds_each_cost_cell_once():
    alphas = worker.NON_UNIT_ALPHAS
    for seed in (1, 2):
        wl = worker.build("verify-all-sym", ap, seed, ROOT, traced=False)
        first = wl.ops[:wl.round_len]
        assert sorted(s.alphas[0] for s in first) == sorted(alphas)
        assert sorted(s.alphas[1] for s in first) == sorted(alphas)

        wl = worker.build("verify-each-sym", ap, seed, ROOT, traced=False)
        first = wl.ops[wl.round_len:2 * wl.round_len]
        cells = Counter((slug, spec.phi, spec.r) for slug, spec in first)
        assert len(cells) == 6 * 3 * 2
        assert all(n == (2 if slug == "symmetry" else 1) for (slug, _, _), n in cells.items())
        assert Counter(spec.alphas[0] for _, spec in first) == Counter(
            {a: wl.round_len // 7 for a in alphas[:7]})

        wl = worker.build("expand-deep", ap, seed, ROOT, traced=False)
        first = wl.ops[:wl.round_len]
        assert len({op[:4] for op in first}) == len(first) == 54
        assert Counter(op[4] for op in first) == Counter({"json": 18, "csv": 18, "latex": 18})

        wl = worker.build("cli-golden", ap, seed, ROOT, traced=False)
        assert sorted(name for name, _ in wl.ops[:wl.round_len]) == sorted(wl.golden)


def test_steady_scales_each_op_by_the_references_around_it():
    ref = worker.REF_S
    assert run.steady([1.0, 3.0], [ref, ref, 3 * ref]) == [1.0, 1.5]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([2.0, 1.0]) == (1.0, 50.0, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-golden",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
