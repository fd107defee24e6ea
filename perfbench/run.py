"""genconn benchmark.

Run one workload and print its metrics as the last line of stdout::

    python3 perfbench/run.py --workload verify-refute --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans to ``perfbench/_work/``.  Rebuild
the `solve` reference answers with::

    python3 perfbench/run.py refs

The program under test is imported from ``src/`` of the checkout this
file sits in; the benchmark exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPS = 15
MIN_PASSES = 3  # untraced passes; a traced run also makes two traced ones
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Timings are reported at a reference machine speed: the speed at which
# the calibration loop takes CALIBRATION_NOMINAL_S.  On the shared 2-vCPU
# host the benchmark was built on, identical passes drifted by a third
# within minutes.  The runner times the loop between operations, at most
# every PROBE_INTERVAL_S, and scales each pass by the nominal time over
# the mean of the samples taken around it.  The raw times go to stderr.
CALIBRATION_ITERATIONS = 800
CALIBRATION_PARSERS = 12
CALIBRATION_NOMINAL_S = 0.030
PROBE_INTERVAL_S = 0.25

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import genconn.cli, genconn.verify; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the program, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def _calibration_graph() -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Edges and per-vertex incidence masks of a fixed 16-vertex graph."""
    rng = random.Random(7)
    edges = tuple(sorted(rng.sample(list(combinations(range(16), 2)), 30)))
    inc = [0] * 16
    for j, (u, v) in enumerate(edges):
        inc[u] |= 1 << j
        inc[v] |= 1 << j
    return edges, tuple(inc)


CALIBRATION_EDGES, CALIBRATION_INCIDENCE = _calibration_graph()


def _calibration_loop() -> int:
    """Fixed work of the kind the solver does, in the benchmark's own code
    so that no change to the program moves it: bitmask reachability on a
    small graph, once per deleted edge."""
    edges = CALIBRATION_EDGES
    inc = CALIBRATION_INCIDENCE
    full = (1 << len(edges)) - 1
    total = 0
    for rep in range(CALIBRATION_ITERATIONS):
        emask = full ^ (1 << (rep % len(edges)))
        reached = frontier = 1 << (rep % len(inc))
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                e = inc[b.bit_length() - 1] & emask
                while e:
                    eb = e & -e
                    e ^= eb
                    u, v = edges[eb.bit_length() - 1]
                    new = ((1 << u) | (1 << v)) & ~reached
                    reached |= new
                    nxt |= new
            frontier = nxt
        total += reached
    return total


def _calibration_parsers() -> None:
    """Fixed standard-library work of the kind ``cli.main`` does on every
    call: build an argparse parser with sub-commands and parse one command
    line.  Solve calls are mostly this, and it follows the host's speed
    differently from the bitmask loop."""
    for _ in range(CALIBRATION_PARSERS):
        parser = argparse.ArgumentParser(prog="calibration")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c"):
            cmd = sub.add_parser(name)
            cmd.add_argument("path")
            cmd.add_argument("--count", type=int)
            cmd.add_argument("--flag", action="store_true")
        parser.parse_args(["b", "file", "--count", "3"])


def calibrate() -> float:
    """One timed calibration loop, with the collector off so the program's
    heap does not affect it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_loop()
        _calibration_parsers()
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Calibration samples taken between operations.  ``factor`` closes a
    pass: the nominal loop time over the mean of the samples taken since
    the previous pass closed, both ends included."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._open: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        c = calibrate()
        self.samples.append(c)
        self._open.append(c)
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        self.sample()
        f = CALIBRATION_NOMINAL_S / statistics.fmean(self._open)
        self._open = [self._open[-1]]
        return f


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    probe = SpeedProbe()
    probe.sample()
    wl = workloads.make(workload)
    setup_times = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        start = time.perf_counter()
        state = wl.setup(seed, WORK)
        raw = t_import + time.perf_counter() - start
        setup_times.append(raw * probe.factor())

    tracer = layers.Tracer()
    untraced, traced, raw_walls, factors = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(traced) < len(untraced)
        if tracing:
            tracer.begin_pass()
            try:
                res = wl.run_pass(state, tracer, probe.tick)
            finally:
                tracer.end_pass()
        else:
            res = wl.run_pass(state, tracer, probe.tick)
        raw_walls.append(res.wall)
        f = probe.factor()
        res.op_times = [t * f for t in res.op_times]
        if tracing:
            factors.append(f)
            traced.append(res)
        else:
            untraced.append(res)
        done = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED_PASSES)
        if done and time.perf_counter() >= deadline:
            break

    # Every time below is at the reference speed.
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    if trace:
        durations: dict[str, list[float]] = {}
        for spans, f in zip(tracer.passes, factors):
            for name, values in layers.call_durations(spans, f).items():
                durations.setdefault(name, []).extend(values)
        overhead = (statistics.median(p.wall for p in traced)
                    - statistics.median(p.wall for p in untraced))
        values = layers.layer_metrics(
            [layers.layer_totals(spans, f) for spans, f in zip(tracer.passes, factors)],
            durations, overhead, tracer.missing, failed / attempted,
            1000.0 * statistics.median(probe.samples),
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.LAYER_METRICS}
        tracer.write(WORK / f"trace-{workload}-seed{seed}.jsonl")
    else:
        # The median describes the typical operation: each operation's
        # median over passes, then the median of those.  The tail counts
        # every call of the run when a pass has enough operations to give
        # it ten calls beyond, and is the slowest operation otherwise.
        per_op = [statistics.median(p.op_times[i] for p in untraced)
                  for i in range(len(untraced[0].op_times))]
        if len(per_op) > 10:
            tail = layers.tail_value([t for p in untraced for t in p.op_times])
        else:
            tail = max(per_op)
        values = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "op_p50_ms": 1000.0 * statistics.median(per_op),
            "op_tail_ms": 1000.0 * tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload={workload} seed={seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; attempted={attempted} failed={failed}", file=sys.stderr)
    print("  raw pass seconds: " + " ".join(f"{w:.3f}" for w in raw_walls), file=sys.stderr)
    print(f"  {len(probe.samples)} calibrations, median "
          f"{1000 * statistics.median(probe.samples):.2f} ms, range "
          f"{1000 * min(probe.samples):.2f}-{1000 * max(probe.samples):.2f} ms", file=sys.stderr)
    for e in errors[:20]:
        print(f"  error: {e}", file=sys.stderr)
    if tracer.missing:
        print("  missing wrapped names: " + ", ".join(tracer.missing), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", nargs="?", default="run", choices=("run", "refs"))
    parser.add_argument("--workload", default="verify-refute",
                        choices=("verify-refute", "verify-mixed", "solve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genconn" / "__init__.py").is_file():
        print(f"error: no genconn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.action == "refs":
        import solve_pool

        refs = solve_pool.write_refs()
        print(f"wrote {solve_pool.REFS_PATH} "
              f"(reference time {refs['reference_time_s']})", file=sys.stderr)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
