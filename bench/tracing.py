"""Spans around the public functions of each tatek layer, recorded from outside.

The tracer wraps a function by replacing every module or class attribute
through which callers reach it (``tatek.cli`` imports ``tate_k`` by name, so
``tatek.cli.tate_k`` is patched as well as ``tatek.assemble.tate_k``).
Nothing in the package is edited, and ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent, request, size]``.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("startup", "cli", "records", "modp", "orbits", "graphs", "series", "classes", "assemble", "selftest", "replay")
CLI_COMMANDS = ("orbits", "classes", "tate", "rational", "table", "normalize", "example", "selftest")


def _count_moves(counts: Counter, result) -> None:
    _, moves = result
    counts["graphs.moves"] += len(moves)
    counts["graphs.collapse_moves"] += sum(m.op == "collapse" for m in moves)
    counts["graphs.slide_moves"] += sum(m.op == "slide" for m in moves)


def _count_classes(counts: Counter, result) -> None:
    counts["classes.classes_listed"] += len(result.classes)


def _count_unknown(counts: Counter, result) -> None:
    counts["assemble.unknown_results"] += not result.known


# (module, function, span name, size of the first argument, hook on the result)
SPANS = (
    ("tatek.records", "render_record", "records.render", None, None),
    ("tatek.modp", "group_closure", "modp.closure", None, None),
    ("tatek.orbits", "orbit_report", "orbits.report", None, None),
    ("tatek.orbits", "enumerate_orbits", "orbits.enumerate", lambda g: g.p, None),
    ("tatek.orbits", "burnside_orbit_count", "orbits.burnside", None, None),
    ("tatek.orbits", "quotient_summary", "orbits.quotient_summary", None, None),
    ("tatek.graphs", "loads", "graphs.loads", None, None),
    ("tatek.graphs", "validate", "graphs.validate", lambda g: g.n_half_edges, None),
    ("tatek.graphs", "normalize", "graphs.normalize", lambda g: g.n_half_edges, _count_moves),
    ("tatek.series", "series_of", "series.series_of", None, None),
    ("tatek.classes", "order_p_classes", "classes.order_p_classes", None, _count_classes),
    ("tatek.classes", "centraliser_of", "classes.centraliser_of", None, None),
    ("tatek.assemble", "tate_k", "assemble.tate_k", None, _count_unknown),
    ("tatek.assemble", "rational_k", "assemble.rational_k", None, None),
    ("tatek.assemble", "emit_table", "assemble.emit_table", None, None),
    ("tatek.selftest", "run_selftest", "selftest.run", None, None),
) + tuple(("tatek.cli", f"cmd_{c}", f"cli.main.{c}", None, None) for c in CLI_COMMANDS)
# (module, class, method, span name); a span name of None only counts calls.
METHOD_SPANS = (
    ("tatek.series", "Registry", "load_default", "series.registry_load"),
    ("tatek.series", "Registry", "lookup", "series.lookup"),
    ("tatek.series", "PoincareSeries", "convolve", None),
)
COUNTED = (("tatek.series", "flip_symmetric_square", "series.flip_square"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def begin(self, name: str, size: int = 0) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request, size]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, size=None, hook=None):
        def traced(*args, **kwargs):
            span = self.begin(name, size(args[0]) if size else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if hook:
                hook(self.counts, result)
            return result

        return functools.update_wrapper(traced, fn)

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -- patching ------------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch."""
        modules = [m for name, m in sys.modules.items() if name == "tatek" or name.startswith("tatek.")]
        plan = []

        def everywhere(fn, replacement) -> None:
            for module in modules:
                for attr, value in vars(module).items():
                    if value is fn:
                        plan.append((module, attr, fn, replacement))

        for module, attr, name, size, hook in SPANS:
            fn = getattr(sys.modules[module], attr)
            everywhere(fn, self.wrap(name, fn, size, hook))
        for module, attr, name in COUNTED:
            fn = getattr(sys.modules[module], attr)
            everywhere(fn, self.count(name, fn))
        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            raw = vars(cls)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(name, fn) if name else self.count(f"series.{attr}", fn)
            plan.append((cls, attr, raw, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped))
        # main() builds the parser and then parses; both are argument parsing.
        cli = sys.modules["tatek.cli"]
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        plan.append((cli, "build_parser", build, self.wrap("cli.parse", functools.update_wrapper(build_parser, build))))
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)


def layer_metrics(
    tracer: Tracer, startup: dict[str, float], overhead_pct: float, own_requests: int
) -> dict[str, float]:
    """Every per-layer metric from the spans and counts of one traced pass.

    ``startup`` holds the ``startup.*`` figures measured in child processes.
    Each of the workload's ``own_requests`` is one process in the timed run,
    which turns the per-process start-up cost into a layer total.  Requests
    numbered from ``own_requests`` on are the probe: the per-size
    figures (``.min_p``, ``.max_h``, ...) use them only when the workload's
    own requests never reach that function.
    """
    spans = tracer.spans
    duration = [s[2] - s[1] for s in spans]
    own = list(duration)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= duration[i]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        self_ns[span[0]] += own[i]
        layer_ns[span[0].split(".")[0]] += own[i]

    def ms(name: str) -> float:
        return self_ns[name] / 1e6

    m: dict[str, float] = dict(startup)
    m["cli.parse_ms"] = ms("cli.parse")
    for c in CLI_COMMANDS:
        m[f"cli.main_ms.{c}"] = ms(f"cli.main.{c}")
    m["records.render_calls"] = calls["records.render"]
    m["records.render_ms"] = ms("records.render")
    m["modp.closure_calls"] = calls["modp.closure"]
    m["modp.closure_ms"] = ms("modp.closure")

    def sized(name: str) -> list[int]:
        found = [i for i, s in enumerate(spans) if s[0] == name]
        return [i for i in found if spans[i][4] < own_requests] or found

    vectors = defaultdict(lambda: [0, 0])  # p -> [ns, vectors]
    for i in sized("orbits.enumerate"):
        p = spans[i][5]
        vectors[p][0] += duration[i]
        vectors[p][1] += p * p - 1
    m["orbits.enumerate_calls"] = calls["orbits.enumerate"]
    m["orbits.enumerate_vectors"] = sum(s[5] ** 2 - 1 for s in spans if s[0] == "orbits.enumerate")
    m["orbits.enumerate_ms"] = ms("orbits.enumerate")
    m["orbits.enumerate_ns_per_vector.min_p"] = _per_unit(vectors, min(vectors, default=0))
    m["orbits.enumerate_ns_per_vector.max_p"] = _per_unit(vectors, max(vectors, default=0))
    m["orbits.burnside_calls"] = calls["orbits.burnside"]
    m["orbits.burnside_ms"] = ms("orbits.burnside")
    m["orbits.quotient_summary_calls"] = calls["orbits.quotient_summary"]

    # Per input graph: validation (the calls made inside normalize) and
    # normalize's own time, each per input half-edge, microseconds.
    validate_by_h = defaultdict(lambda: [0, 0])
    normalize_by_h = defaultdict(lambda: [0, 0])
    normalizing = set(sized("graphs.normalize"))
    for i in normalizing:
        h = spans[i][5]
        normalize_by_h[h][0] += own[i]
        normalize_by_h[h][1] += h
        validate_by_h[h][1] += h
    for i, span in enumerate(spans):
        if span[0] == "graphs.validate" and span[3] in normalizing:
            validate_by_h[spans[span[3]][5]][0] += duration[i]
    m["graphs.loads_ms"] = ms("graphs.loads")
    m["graphs.validate_ms"] = ms("graphs.validate")
    m["graphs.normalize_ms"] = ms("graphs.normalize")
    for key in ("graphs.moves", "graphs.collapse_moves", "graphs.slide_moves"):
        m[key] = tracer.counts[key]
    for name, table in (("validate", validate_by_h), ("normalize", normalize_by_h)):
        m[f"graphs.{name}_us_per_half_edge.min_h"] = _per_unit(table, min(table, default=0)) / 1e3
        m[f"graphs.{name}_us_per_half_edge.max_h"] = _per_unit(table, max(table, default=0)) / 1e3

    m["series.registry_load_ms"] = ms("series.registry_load")
    m["series.series_of_calls"] = calls["series.series_of"]
    m["series.series_of_ms"] = ms("series.series_of")
    m["series.lookup_calls"] = calls["series.lookup"]
    m["series.lookup_ms"] = ms("series.lookup")
    m["series.convolve_calls"] = tracer.counts["series.convolve"]
    m["series.flip_square_calls"] = tracer.counts["series.flip_square"]
    m["classes.order_p_classes_calls"] = calls["classes.order_p_classes"]
    m["classes.order_p_classes_ms"] = ms("classes.order_p_classes")
    m["classes.classes_listed"] = tracer.counts["classes.classes_listed"]
    m["classes.centraliser_of_ms"] = ms("classes.centraliser_of")
    m["assemble.tate_k_calls"] = calls["assemble.tate_k"]
    m["assemble.tate_k_ms"] = ms("assemble.tate_k")
    m["assemble.rational_k_ms"] = ms("assemble.rational_k")
    m["assemble.emit_table_ms"] = ms("assemble.emit_table")
    m["assemble.unknown_results"] = tracer.counts["assemble.unknown_results"]
    m["selftest.run_ms"] = ms("selftest.run")
    m["trace.overhead_pct"] = overhead_pct

    layer_ns["startup"] = own_requests * (startup["startup.interp_ms"] + startup["startup.import_ms.tatek"]) * 1e6
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = layer_ns[layer] / 1e6
    return m


def _per_unit(table: dict, key) -> float:
    ns, units = table.get(key, (0, 0))
    return ns / units if units else 0.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self times (ms) of the tatek modules, and the whole ``import tatek.cli``
    as ``tatek``, from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[2].strip().startswith("tatek"):
            continue
        own, cumulative, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
        if name == "tatek.cli":
            out["tatek"] = cumulative / 1e3
        if "." in name:
            out[name.split(".", 1)[1]] = own / 1e3
    return out


def median_dict(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
