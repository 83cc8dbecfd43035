"""Spans around the package's public functions, and per-layer metrics.

`Tracer.install` replaces every public function of the package in the
namespace of each module that holds it, under the name that module uses
(`cyclelattice.cli.exact_determinant`, `cyclelattice.lattice_basis.minor`,
...), plus `json.dumps` as `cyclelattice.cli` sees it.  Each call then
records a span with its parent, so self time is duration minus the time of
the child spans.  `uninstall` puts the original objects back.  Nothing in
the package changes on disk.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import types
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "cyclelattice"
CLI_MAIN = "cyclelattice.cli.main"
CLI_DUMPS = "cyclelattice.cli.json.dumps"


def _graph_size(args):
    G = args[0]
    return G.n, G.m


# Sizes recorded with the span of some functions, for per-size metrics.
_EXTRA = {
    "cyclelattice.oracle.exact_determinant": lambda args, result: args[0].rows,
    "cyclelattice.lattice_basis.semi_fundamental_basis": lambda a, r: _graph_size(a),
    "cyclelattice.topo_extension.compatible_chain": lambda a, r: _graph_size(a),
    "cyclelattice.topo_extension.extension_sequence": lambda a, r: (a[0].m, len(r.steps)),
}


@dataclass
class Span:
    """One call: `key` names the function where it is defined."""

    sid: int
    parent: int | None
    key: str
    start: float
    end: float = 0.0
    extra: object = None

    @property
    def layer(self) -> str:
        return self.key.split(".")[1]


class _JsonView:
    """`json` as seen by the CLI module, with `dumps` traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _targets: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, key: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, key, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, func, key: str):
        extra = _EXTRA.get(key)

        def traced(*args, **kwargs):
            span = self.begin(key)
            try:
                result = func(*args, **kwargs)
            finally:
                self.finish(span)
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return traced

    def install(self):
        if not self._targets:
            self._targets = self._discover()
        for owner, name, wrapper in self._targets:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _discover(self) -> list[tuple[object, str, object]]:
        """(module, name, wrapper) for every public function name of the package."""
        targets = []
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{PACKAGE}.{info.name}")
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not name.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__module__ != f"{PACKAGE}.cli"
                ):
                    key = f"{value.__module__}.{value.__name__}"
                    targets.append((module, name, self.wrap(value, key)))
        cli = importlib.import_module(f"{PACKAGE}.cli")
        targets.append((cli, "json", _JsonView(self.wrap(json.dumps, CLI_DUMPS))))
        return targets


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def outermost(spans: list[Span], keys: set[str]) -> list[Span]:
    """Spans of `keys` that have no ancestor of `keys`.

    Their durations add up to the time spent inside `keys`, counting nested
    calls once.  Spans must be in start order with sid equal to the index.
    """
    inside: list[bool] = []
    out = []
    for s in spans:
        nested = s.parent is not None and inside[s.parent]
        inside.append(nested or s.key in keys)
        if s.key in keys and not nested:
            out.append(s)
    return out


def group_time(spans: list[Span], keys: set[str]) -> float:
    return sum(s.end - s.start for s in outermost(spans, keys))


_MG = "cyclelattice.multigraph."
_CS = "cyclelattice.cycle_structure."
_LB = "cyclelattice.lattice_basis."
_TE = "cyclelattice.topo_extension."
_OR = "cyclelattice.oracle."
_LH = "cyclelattice.linear_hull."

# metric -> function keys whose union time it reports
TIME_GROUPS = {
    "multigraph.parse_s": {_MG + "parse_edge_list"},
    "multigraph.forest_s": {_MG + "spanning_forest"},
    "multigraph.minor_s": {_MG + "minor"},
    "multigraph.components_s": {
        _MG + "connected_components",
        _MG + "component_subgraphs",
        _MG + "is_connected",
    },
    "cycle_structure.fcm_s": {_CS + "fundamental_cycle_matrix"},
    "cycle_structure.series_s": {_CS + "bridges_and_series_classes"},
    "cycle_structure.cosimplify_s": {_CS + "cosimplify"},
    "lattice_basis.lift_s": {_LB + "lift_basis"},
    "topo_extension.sequence_s": {_TE + "extension_sequence"},
    "oracle.det_s": {_OR + "exact_determinant"},
    "linear_hull.report_s": {_LH + "hull_report"},
    "cli.serialize_s": {CLI_DUMPS},
}
# metric -> function key whose calls it counts
CALL_COUNTS = {
    "multigraph.forest_calls": _MG + "spanning_forest",
    "multigraph.minor_calls": _MG + "minor",
    "cycle_structure.fcm_calls": _CS + "fundamental_cycle_matrix",
    "cycle_structure.series_calls": _CS + "bridges_and_series_classes",
    "cycle_structure.cosimplify_calls": _CS + "cosimplify",
    "cycle_structure.simple_cycle_checks": _CS + "is_simple_cycle",
    "topo_extension.apply_calls": _TE + "apply_extension",
    "oracle.det_calls": _OR + "exact_determinant",
}
# metric -> function key whose self time it reports
SELF_TIMES = {
    "lattice_basis.semi_self_s": _LB + "semi_fundamental_basis",
    "topo_extension.chain_self_s": _TE + "compatible_chain",
    "cli.command_self_s": CLI_MAIN,
}
LAYERS = (
    "multigraph",
    "cycle_structure",
    "lattice_basis",
    "topo_extension",
    "oracle",
    "linear_hull",
    "cli",
)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass.

    wall_s is the traced time of the pass, the base of det_share.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for metric, keys in TIME_GROUPS.items():
        out[metric] = group_time(spans, keys)
    for metric, key in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s.key == key)
    for metric, key in SELF_TIMES.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.key == key)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    orders = [s.extra for s in spans if s.key == _OR + "exact_determinant"]
    out["oracle.det_order_sum"] = sum(orders)
    out["oracle.det_ops"] = sum(k**3 / 3 for k in orders)
    out["oracle.det_share"] = out["oracle.det_s"] / wall_s

    out["lattice_basis.semi_us_per_mn"] = _us_per_mn(spans, _LB + "semi_fundamental_basis")
    out["topo_extension.topo_us_per_mn"] = _us_per_mn(spans, _TE + "compatible_chain")
    seqs = [s.extra for s in spans if s.key == _TE + "extension_sequence"]
    m_total = sum(m for m, _ in seqs)
    out["topo_extension.seq_len_per_m"] = sum(k for _, k in seqs) / m_total if m_total else 0.0
    return out


def _us_per_mn(spans: list[Span], key: str) -> float:
    """Microseconds per m*n unit over the outermost calls of `key`."""
    calls = outermost(spans, {key})
    units = sum(n * m for n, m in (s.extra for s in calls))
    return sum(s.end - s.start for s in calls) / units * 1e6 if units else 0.0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_us_per_mn"):
        return "us/mn"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_calls", "_checks", "_order_sum")):
        return "count"
    if metric.endswith("_ops"):
        return "ops"
    if metric.endswith("_bytes"):
        return "bytes"
    return "ratio"
