"""In-memory call spans around colorlab's layer boundaries.

The tracer times each layer from outside the program: it replaces module
attributes that callers look up at call time (``colorlab.solve._indexed``,
``colorlab.engine.solve_colors``, ...) with wrappers that record a span
(layer, parent span, start, end) and, for the kernels, the work counters the
call returned.  Nothing under ``src/`` is edited.  Spans stay in memory;
``run.py`` writes those of the last traced operation when the run ends.

A wrap target that no longer exists is an error, not a layer that reads
0 s: ``record`` raises ``TraceError`` naming it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, layer).  The layer names the per-layer metric
# the span's time goes to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("colorlab.build", "mirzakhani", "build.construct"),
    ("colorlab.build", "gadget", "build.construct"),
    ("colorlab.build", "canonical_lists", "build.construct"),
    # audit() builds M and its lists through its own imported names.
    ("colorlab.verify", "mirzakhani", "build.construct"),
    ("colorlab.verify", "canonical_lists", "build.construct"),
    ("colorlab.choose", "make_lists", "build.make_lists"),
    ("colorlab.choose", "SplitMix64.sample", "choose.sample"),
    ("colorlab.choose", "decide", "solve.decide"),
    ("colorlab.solve", "_indexed", "solve.indexed"),
    ("colorlab.solve", "_decode", "solve.decode"),
    ("colorlab.solve", "verify_coloring", "verify.coloring"),
    ("colorlab.engine", "solve_colors", "engine.solve_colors"),
    ("colorlab.verify", "hamilton_cycle", "engine.hamilton"),
    ("colorlab.verify", "apex_embed", "verify.planarity"),
    ("colorlab.verify", "face_census", "verify.planarity"),
    ("colorlab.verify", "check_hamiltonian_cycle", "verify.hamilton_replay"),
    ("colorlab.verify", "cut_certificate", "verify.cut"),
    ("colorlab.verify", "perfect_matching", "verify.matching"),
    ("colorlab.verify", "check_matching", "verify.matching"),
    ("colorlab.graphio", "graph_from_json", "graphio.parse"),
    ("colorlab.graphio", "lists_from_json", "graphio.parse"),
    ("colorlab.verify", "AuditReport.to_json", "graphio.serialize"),
    ("colorlab.choose", "ProbeReport.to_json", "graphio.serialize"),
    ("colorlab.solve", "CountResult.to_json", "graphio.serialize"),
)

KERNEL_LAYERS = ("engine.solve_colors", "engine.hamilton")

# What a span keeps of its call's return value, for the work counters.
KEEP = {
    "engine.solve_colors": lambda r: r[2:5],  # nodes, propagations, solutions
    "engine.hamilton": lambda r: r[2],  # nodes
    "solve.decide": lambda r: r.status == "SAT",
}


class TraceError(RuntimeError):
    """A wrap target is missing, so a layer cannot be measured."""


class Span:
    __slots__ = ("layer", "parent", "start", "end", "result")

    def __init__(self, layer: str, parent: int, start: float):
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str):
    """(owner object, attribute name) for 'module' + 'A.b'; raises TraceError."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise TraceError(f"wrap target module {module} cannot be imported: {exc}") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise TraceError(
            f"wrap target {module}.{path} is missing; its layer would read 0 s. "
            "Update perfbench/spans.py to the new name."
        )
    return owner, attr


def record(fn, *args):
    """Run fn(*args) with every target wrapped; returns (result, wall s, spans).

    The wrappers exist only during the call, so untraced runs pay nothing.
    """
    resolved = [(_resolve(mod, path), layer) for mod, path, layer in TARGETS]
    spans: list[Span] = []
    stack: list[int] = []
    saved = []
    try:
        for (owner, attr), layer in resolved:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(layer, original, spans, stack))
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return result, wall, spans


def _wrap(layer: str, fn, spans: list[Span], stack: list[int]):
    clock = time.perf_counter
    keep = KEEP.get(layer)

    def traced(*args, **kwargs):
        span = Span(layer, stack[-1] if stack else -1, clock())
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if keep is not None:
                span.result = keep(result)
            return result
        finally:
            span.end = clock()
            stack.pop()

    return traced


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer; a span nested in a span of its own layer is not
    counted again."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        p = span.parent
        while p >= 0 and spans[p].layer != span.layer:
            p = spans[p].parent
        if p < 0:
            out[span.layer] += span.duration
    return out


def op_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation that took `wall` seconds."""
    t = layer_times(spans)
    calls: dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    nodes = props = solutions = ham_nodes = decide_sat = 0
    for span in spans:
        calls[span.layer] += 1
        if span.parent >= 0:
            child_time[span.parent] += span.duration
        if span.layer == "engine.solve_colors":
            n, p, found = span.result
            nodes += n
            props += p
            solutions += found
        elif span.layer == "engine.hamilton":
            ham_nodes += span.result
        elif span.layer == "solve.decide":
            decide_sat += span.result
    decide_self = sum(
        s.duration - child_time[i] for i, s in enumerate(spans) if s.layer == "solve.decide"
    )
    top = sum(s.duration for s in spans if s.parent < 0)
    kernel = sum(t[layer] for layer in KERNEL_LAYERS)
    return {
        "build.make_lists_s": t["build.make_lists"],
        "build.make_lists_calls": calls["build.make_lists"],
        "choose.sample_s": t["choose.sample"],
        "choose.sample_calls": calls["choose.sample"],
        "choose.sat_fraction": decide_sat / calls["solve.decide"] if calls["solve.decide"] else 0.0,
        "solve.indexed_s": t["solve.indexed"],
        "solve.indexed_calls": calls["solve.indexed"],
        "solve.decode_s": t["solve.decode"],
        "solve.decide_self_s": decide_self,
        "engine.solve_colors_s": t["engine.solve_colors"],
        "engine.solve_colors_calls": calls["engine.solve_colors"],
        "engine.nodes": nodes,
        "engine.propagations": props,
        "engine.solutions": solutions,
        "engine.node_rate": nodes / t["engine.solve_colors"] if nodes else 0.0,
        "engine.hamilton_s": t["engine.hamilton"],
        "engine.hamilton_nodes": ham_nodes,
        "engine.hamilton_node_rate": ham_nodes / t["engine.hamilton"] if ham_nodes else 0.0,
        "engine.share": kernel / wall,
        "verify.coloring_s": t["verify.coloring"],
        "verify.planarity_s": t["verify.planarity"],
        "verify.hamilton_replay_s": t["verify.hamilton_replay"],
        "verify.cut_s": t["verify.cut"],
        "verify.matching_s": t["verify.matching"],
        "graphio.parse_s": t["graphio.parse"],
        "graphio.serialize_s": t["graphio.serialize"],
        "trace.span_coverage": top / wall,
        "trace.traced_wall_s": wall,
    }
