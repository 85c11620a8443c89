"""In-memory spans around the public functions of each ``wco`` module.

The benchmark, not the program, records the spans: `install` rebinds every
traced name in every ``wco`` module that holds it (``series.compose_poly``
and ``operators.compose_poly`` are the same function bound twice, and
internal calls go through the module globals), plus the arithmetic dunders
of ``TruncatedSeries``.  `uninstall` puts the originals back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: per-layer metric name -> (module, attribute) pairs recorded under it;
#: "Class.method" names a method, rebound on the class.
LAYERS = {
    "series.mul": [("wco.series", "TruncatedSeries.__mul__")],
    "series.div": [("wco.series", "TruncatedSeries.__truediv__")],
    "series.compose_poly": [("wco.series", "compose_poly")],
    "spaces.family_weights": [("wco.spaces", "family_weights")],
    "spaces.classify_weights": [("wco.spaces", "classify_weights")],
    "spaces.kernel": [("wco.spaces", "kernel")],
    "spaces.quadrature": [
        ("wco.spaces", "fock_norm_quadrature"),
        ("wco.spaces", "bergman_norm_quadrature"),
        ("wco.spaces", "hardy_norm_quadrature"),
    ],
    "symbols.synthesize": [
        ("wco.symbols", "synthesize"),
        ("wco.symbols", "synthesize_from_weights"),
    ],
    "symbols.selfmap_interval": [("wco.symbols", "selfmap_interval")],
    "operators.build_matrix": [("wco.operators", "build_matrix")],
    "operators.kernel_identity_residual": [("wco.operators", "kernel_identity_residual")],
    "operators.conjugation_check": [("wco.operators", "conjugation_check")],
    "operators.kernel_tail_bound": [("wco.operators", "kernel_tail_bound")],
    "operators.finite_section_norm": [("wco.operators", "finite_section_norm")],
    "operators.checks": [
        ("wco.operators", "hermitian_deviation"),
        ("wco.operators", "hermitian_deviation_argmax"),
        ("wco.operators", "moment_conditions"),
    ],
    "verify.ode_residual": [("wco.verify", "ode_residual")],
    "verify.full_report": [("wco.verify", "full_report")],
    "cli.main": [("wco.cli", "main")],
    "cli.sweep_cell": [("wco.cli", "_sweep_cell")],
}

#: layers whose calls are power chains (psi * phi^j for j = 0..N)
POWER_CHAIN_LAYERS = ("operators.build_matrix", "series.compose_poly")

OP = "op"


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.labels: dict[int, str] = {}  # op span index -> op label
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def op(self, label: str, fn):
        """Run one benchmark operation under a root span."""
        self.labels[len(self.spans)] = label
        span = self.begin(OP)
        try:
            return fn()
        finally:
            self.end(span)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- rebinding ------------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Rebind every name in LAYERS; names a checkout lacks are listed in
        ``missing`` and read as zero."""
        hooks = hooks or {}
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wco" or n.startswith("wco."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                traced = self.wrap(layer, original, hooks.get(layer))
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, name, value))
                            setattr(holder, name, traced)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and summed self time per layer name (ops excluded)."""
        selfs = self_times(self.spans)
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            t = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += own
        totals.pop(OP, None)
        return totals

    def calls_per_label(self, layers) -> dict[str, tuple[int, int]]:
        """(ops, calls of the given layers) per op label."""
        root_of: list[int] = []
        for i, span in enumerate(self.spans):
            root_of.append(i if span[3] < 0 else root_of[span[3]])
        out: dict[str, list[int]] = {}
        for label in self.labels.values():
            out.setdefault(label, [0, 0])[0] += 1
        for i, span in enumerate(self.spans):
            if span[0] in layers:
                label = self.labels.get(root_of[i])
                if label is not None:
                    out[label][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def outermost_import_times(stderr: str, package: str, others=()) -> float:
    """Seconds of cumulative import time of the outermost ``package`` entries
    in ``python -X importtime`` output, leaving out entries imported from
    inside one of the ``others`` packages (scipy pulls in numpy submodules,
    and that time is scipy's).  Children print before their parents."""
    def matches(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1])))
    blockers = (package, *others)
    total, stack = 0, []  # stack of (indent, inside a blocking ancestor)
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        blocked = bool(stack) and stack[-1][1]
        if matches(name, package) and not blocked:
            total += cumulative
        stack.append((indent, blocked or any(matches(name, b) for b in blockers)))
    return total * 1e-6
