"""Span tracer that wraps apostol's public callables from outside the package.

Every wrapped callable opens a span named after its layer.  Spans are kept
in memory, aggregated into a call tree: a node is one (parent span, name)
edge with its call count, its total time and the time covered by its child
spans, so the node's self time is total minus child time.  The root node is
the benchmark op itself; its self time is the time no layer accounts for.

Wrapping happens by replacing the original function object wherever an
``apostol`` module or class binds it, so aliases are traced too:
``MultiPoly.__radd__``/``__rmul__`` and names imported with
``from .family import ...`` in ``identities`` and ``cli``.  Tracing only
records while an op is open; outside ``start``/``stop`` every wrapper calls
straight through, so output checks run between ops stay untraced.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

TRACE_MARK = "BENCH-TRACE "

IDENTITY_FUNCS = {
    "verify_series_def": "series-def",
    "verify_shift": "shift",
    "verify_shift_mixed": "shift-mixed",
    "verify_double_index": "double-index",
    "verify_shift_one": "shift-one",
    "verify_shift_general": "shift-general",
    "verify_symmetry": "symmetry",
}


class Node:
    __slots__ = ("calls", "total", "child", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict[str, Node] = {}

    def get(self, name: str) -> Node:
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node()
        return node

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total": self.total, "child": self.child,
                "children": {k: v.to_dict() for k, v in self.children.items()}}

    def merge(self, d: dict) -> None:
        self.calls += d["calls"]
        self.total += d["total"]
        self.child += d["child"]
        for name, sub in d["children"].items():
            self.get(name).merge(sub)


def _count_mul(tracer: Tracer, args: tuple, result) -> None:
    a, b = args
    nb = len(b) if hasattr(b, "terms") else (1 if b else 0)
    tracer.counts["polyring.mul.term_products"] += len(a) * nb


def _count_series(tracer: Tracer, args: tuple, result) -> None:
    bits = tracer.max_coeff_bits
    terms = 0
    for poly in result.coeffs:
        terms += len(poly)
        for c in poly.terms.values():
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
    tracer.counts["family.out_terms"] += terms
    tracer.max_coeff_bits = bits


def _count_render(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["cli.render.bytes"] += len(result.encode())


# (span name, module, attribute path, post-call counter or None)
TARGETS = [
    ("polyring.mul", "apostol.polyring", "MultiPoly.__mul__", _count_mul),
    ("polyring.add", "apostol.polyring", "MultiPoly.__add__", None),
    ("series.mul", "apostol.series", "PowerSeries.__mul__", None),
    ("series.invert", "apostol.series", "PowerSeries.invert", None),
    ("series.divide", "apostol.series", "PowerSeries.divide_with_valuation", None),
    ("series.exp_linear", "apostol.series", "PowerSeries.exp_linear", None),
    ("series.extract", "apostol.series", "PowerSeries.extract", None),
    ("family.unified_series", "apostol.family", "unified_series", _count_series),
    ("family.phi_series", "apostol.family", "phi_series", None),
    ("family.general_series", "apostol.family", "general_series", _count_series),
    ("family.unified_members", "apostol.family", "unified_members", None),
    ("family.general_members", "apostol.family", "general_members", None),
    *((f"identities.{slug}", "apostol.identities", fn, None)
      for fn, slug in IDENTITY_FUNCS.items()),
    ("cli.render", "apostol.cli", "render_table", _count_render),
    ("cli.render", "apostol.cli", "render_verdict", _count_render),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """Aggregated span tree plus named counters for one traced process."""

    def __init__(self):
        self.root = Node()
        self.cur: Node | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.max_coeff_bits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- op boundaries --------------------------------------------------------

    def start(self) -> None:
        self.cur = self.root

    def stop(self, op_seconds: float) -> None:
        self.cur = None
        self.root.calls += 1
        self.root.total += op_seconds

    def merge(self, dump: dict) -> None:
        """Fold a child process's span dump in under the root, the op that ran the child."""
        for name, sub in dump["tree"]["children"].items():
            self.root.get(name).merge(sub)
            self.root.child += sub["total"]
        for name, n in dump["counts"].items():
            self.counts[name] += n
        self.max_coeff_bits = max(self.max_coeff_bits, dump["max_coeff_bits"])

    def dump(self) -> dict:
        return {"tree": self.root.to_dict(), "counts": dict(self.counts),
                "max_coeff_bits": self.max_coeff_bits}

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.cur
            if parent is None:
                return fn(*args, **kwargs)
            node = parent.get(name)
            tracer.cur = node
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.cur = parent
                node.calls += 1
                node.total += dt
                parent.child += dt
            if after is not None:
                # Counting is the tracer's own work: keep it out of the
                # parent's self time so it lands in the unattributed share.
                t1 = perf_counter()
                after(tracer, args, result)
                parent.child += perf_counter() - t1
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target and each of its aliases in loaded apostol modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "apostol" or k.startswith("apostol."))]
        for name, modname, path, after in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, after))
                else:
                    new = self.wrap(name, raw, after)
                holders = [owner]
            else:
                raw = getattr(owner, attr)
                new = self.wrap(name, raw, after)
                holders = modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._undo.append((holder, key, raw))
                        setattr(holder, key, new)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, raw = self._undo.pop()
            setattr(holder, key, raw)


# -- reading the tree ---------------------------------------------------------


def _walk(node: Node, name: str = "op"):
    yield name, node
    for child_name, child in node.children.items():
        yield from _walk(child, child_name)


def _first_family_time(node: Node) -> float:
    """Time inside the outermost family spans below a node."""
    total = 0.0
    for name, child in node.children.items():
        if name.startswith("family."):
            total += child.total
        else:
            total += _first_family_time(child)
    return total


def layer_totals(root: Node) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time, total time, and time in family calls."""
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "expand_s": 0.0}
        for name in SPAN_NAMES
    }
    for name, node in _walk(root):
        if name == "op":
            continue
        acc = out[name]
        acc["calls"] += node.calls
        acc["self_s"] += node.total - node.child
        acc["total_s"] += node.total
        if name.startswith("identities."):
            acc["expand_s"] += _first_family_time(node)
    return out
