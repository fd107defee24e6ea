"""Tracing for the benchmark's traced runs.

Spans are recorded only here, by wrappers installed on the module
attributes through which the layers call each other (``solver.*``,
``reductions.reduce_*``, ``io.parse_*``/``serialize_*``,
``verify.verify_reduction``/``verify_packing_result``, ``is_connected`` as
each caller sees it, ``cli.main``).  Nothing under ``src/`` changes and
no private name is wrapped.  A wrapped name that no longer exists is
reported as missing instead of failing the run.

Spans stay in memory as ``(name, parent, start, end, tag)`` tuples; the
parent is the index of the innermost wrapped call open at the time, so a
layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

# (module, attribute, span name); is_connected keeps one span name for
# every caller that imported it.
WRAPPED: tuple[tuple[str, str, str], ...] = tuple(
    [("solver", a, f"solver.{a}") for a in (
        "kappa_set", "lambda_set", "decide_kappa_set", "decide_lambda_set",
        "kappa_k", "lambda_k", "classical_kappa", "classical_lambda",
        "decide_problem1", "decide_3dm",
    )]
    + [("reductions", a, f"reductions.{a}") for a in (
        "reduce_3dm_to_p1", "reduce_3dm_to_p1_with_roles", "reduce_p1_to_kappa",
        "reduce_lambda_to_kappa", "reduce_lambda3_to_lambdak",
        "reduce_3sat_to_lambda2", "reduce_lambda2_to_lambdal",
    )]
    + [("io", a, f"io.{a}") for a in (
        "parse_graph_and_set", "parse_graph", "parse_3dm", "parse_cnf",
        "serialize_graph", "serialize_3dm", "serialize_cnf", "serialize_reduction",
    )]
    + [
        ("verify", "verify_reduction", "verify.verify_reduction"),
        ("verify", "verify_packing_result", "verify.verify_packing_result"),
        ("graphs", "is_connected", "graphs.is_connected"),
        ("solver", "is_connected", "graphs.is_connected"),
        ("verify", "is_connected", "graphs.is_connected"),
        ("cli", "main", "cli.main"),
    ]
)

# Layer groups: a span counts towards its group only when no span of the
# same group encloses it, so nested calls inside one layer are not
# counted twice.
GROUPS = {
    "reductions.build": lambda n: n.startswith("reductions."),
    "io.parse": lambda n: n.startswith("io.parse_"),
    "io.serialize": lambda n: n.startswith("io.serialize_"),
    "solver.classical": lambda n: n.startswith("solver.classical_"),
}

DECIDERS = ("solver.decide_lambda_set", "solver.decide_kappa_set")

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("solver.decide_lambda_set.no_s", "s"),
    ("solver.decide_lambda_set.no_calls", "count"),
    ("solver.decide_lambda_set.yes_s", "s"),
    ("solver.decide_lambda_set.yes_calls", "count"),
    ("solver.decide_lambda_set.tail_ms", "ms"),
    ("solver.decide_kappa_set.yes_s", "s"),
    ("solver.decide_kappa_set.no_s", "s"),
    ("solver.decide_kappa_set.yes_calls", "count"),
    ("solver.decide_kappa_set.no_calls", "count"),
    ("solver.decide_kappa_set.tail_ms", "ms"),
    ("solver.kappa_set.s", "s"),
    ("solver.kappa_set.calls", "count"),
    ("solver.kappa_set.tail_ms", "ms"),
    ("solver.lambda_set.s", "s"),
    ("solver.lambda_set.calls", "count"),
    ("solver.lambda_set.tail_ms", "ms"),
    ("solver.kappa_k.s", "s"),
    ("solver.lambda_k.s", "s"),
    ("solver.classical.s", "s"),
    ("solver.refute_share", "ratio"),
    ("solver.decide_problem1.s", "s"),
    ("solver.decide_problem1.calls", "count"),
    ("solver.decide_3dm.s", "s"),
    ("reductions.build_s", "s"),
    ("reductions.build_calls", "count"),
    ("trees.check_s", "s"),
    ("io.serialize_s", "s"),
    ("io.parse_s", "s"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("graphs.is_connected.s", "s"),
    ("graphs.is_connected.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.missing", "count"),
    ("failed_frac", "ratio"),
    ("calibration.loop_ms", "ms"),
)


def tail_value(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, i.e. the
    eleventh-largest value; the maximum when there are fewer than eleven."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


@dataclass
class Tracer:
    """Span recorder.  Wrappers are installed for traced passes only, and
    each traced pass keeps its own span list, with parents indexed within
    it."""

    on: bool = False
    spans: list[tuple[str, int, float, float, object]] = field(default_factory=list)
    passes: list[list[tuple[str, int, float, float, object]]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in WRAPPED:
            module = import_module(f"genconn.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_pass(self) -> None:
        self.install()
        self.spans = []
        self.on = True

    def end_pass(self) -> list[tuple[str, int, float, float, object]]:
        self.on = False
        self.uninstall()
        self.passes.append(self.spans)
        return self.spans

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            spans = self.spans
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, parent, 0.0, 0.0, None))
            stack.append(idx)
            tag = "error"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                tag = result if isinstance(result, bool) else None
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, tag)

        return traced

    def write(self, path: Path) -> None:
        """Write every recorded span as ``[pass, index, parent, name, start,
        end, tag]``, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for p, spans in enumerate(self.passes):
                for i, (name, parent, start, end, tag) in enumerate(spans):
                    f.write(json.dumps([p, i, parent, name, start, end, tag]) + "\n")


def layer_totals(
    spans: list[tuple[str, int, float, float, object]], scale: float = 1.0
) -> dict[str, float]:
    """Per-layer sums over one traced pass: call counts, and seconds
    multiplied by ``scale``."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += (end - start) * scale
    group_of = [None] * len(spans)
    for i, (name, parent, start, end, tag) in enumerate(spans):
        dur = (end - start) * scale
        add(f"{name}.s", dur)
        add(f"{name}.calls", 1)
        if tag is True or tag is False:
            side = "yes" if tag else "no"
            add(f"{name}.{side}_s", dur)
            add(f"{name}.{side}_calls", 1)
        add(f"{name}.self_s", dur - child_time[i])
        for group, member in GROUPS.items():
            if member(name):
                group_of[i] = group
                p = parent
                while p >= 0 and group_of[p] != group:
                    p = spans[p][1]
                if p < 0:
                    add(f"{group}.s", dur)
                    add(f"{group}.calls", 1)
    return out


def layer_metrics(
    pass_totals: list[dict[str, float]],
    durations: dict[str, list[float]],
    overhead_s: float,
    missing: list[str],
    failed_frac: float,
    calibration_ms: float,
) -> dict[str, float]:
    """Per-layer metric values: the median over traced passes of each
    pass's totals; tails come from every traced call of the function."""

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in pass_totals)

    no_s = sum(med(f"{d}.no_s") for d in DECIDERS)
    decide_s = no_s + sum(med(f"{d}.yes_s") for d in DECIDERS)
    sources = {
        "reductions.build_s": "reductions.build.s",
        "reductions.build_calls": "reductions.build.calls",
        "trees.check_s": "verify.verify_packing_result.s",
        "io.serialize_s": "io.serialize.s",
        "io.parse_s": "io.parse.s",
        "verify.self_s": "verify.verify_reduction.self_s",
        "cli.self_s": "cli.main.self_s",
    }
    values: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric.endswith(".tail_ms"):
            fn = metric[: -len(".tail_ms")]
            values[metric] = 1000.0 * tail_value(durations.get(fn, []))
        elif metric == "solver.refute_share":
            values[metric] = no_s / decide_s if decide_s > 0 else 0.0
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif metric == "trace.missing":
            values[metric] = len(missing)
        elif metric == "failed_frac":
            values[metric] = failed_frac
        elif metric == "calibration.loop_ms":
            values[metric] = calibration_ms
        else:
            values[metric] = med(sources.get(metric, metric))
    return values


def call_durations(
    spans: list[tuple[str, int, float, float, object]], scale: float = 1.0
) -> dict[str, list[float]]:
    """Duration of every call, by span name, multiplied by ``scale``."""
    out: dict[str, list[float]] = {}
    for name, _parent, start, end, _tag in spans:
        out.setdefault(name, []).append((end - start) * scale)
    return out
