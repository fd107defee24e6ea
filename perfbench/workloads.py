"""The three workloads.  Each is a closed loop with one caller: a pass
runs the workload's operations one after another, and the runner repeats
passes until the run's time is up.  ``run_pass`` calls ``tick`` before
each operation, outside its timing, so the runner can sample the
machine's speed between operations.

- ``verify-refute``: ``verify.verify_reduction`` on R6 and R4 at budgets
  below the defaults, where nearly every decision refutes a threshold.
- ``verify-mixed``: ``verify.verify_reduction`` on R1, R2, R3 and R4 at
  l = 2, loading the exact-cover deciders, kappa on line-graph
  augmentations and lambda decisions that find witnesses.
- ``solve``: ``genconn solve`` calls through ``cli.main`` on instance
  files written during set-up (see ``solve_pool``).
"""

from __future__ import annotations

import contextlib
import io as stdio
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from genconn import cli, verify
from genconn.verify import VerifyBudget

import solve_pool

# Connected labeled graphs on n vertices (OEIS A001187), used to count the
# instances the exhaustive verify generators must produce.
CONNECTED_GRAPHS = (0, 1, 1, 4, 38, 728, 26704)


@dataclass
class PassResult:
    op_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # the run is incorrect

    @property
    def wall(self) -> float:
        return sum(self.op_times)


def expected_checked(name: str, b: VerifyBudget) -> int:
    """Instance count of one verify run, from closed forms."""
    ns = range(1, b.max_n + 1)
    if name == "R1":
        return sum(comb(n**3, j) for n in ns for j in range(b.max_m + 1))
    if name == "R2":
        return sum(2 ** (3 * q * q) for q in ns)
    if name == "R3":
        return sum(CONNECTED_GRAPHS[n] * comb(n, s) for n in ns
                   for s in range(2, min(b.max_terminals or 4, n) + 1))
    if name == "R4":
        return sum(CONNECTED_GRAPHS[n] * comb(n, 3) for n in ns) * len(b.ks) * len(b.ls)
    if name == "R6":
        return sum(CONNECTED_GRAPHS[n] * comb(n, s) for n in ns
                   for s in range(2, n + 1)) * len(b.ls)
    raise ValueError(f"unknown reduction {name}")


class VerifyWorkload:
    """Operations are ``verify_reduction`` calls; attempted counts the
    instances they check and failed the failures they report."""

    def __init__(self, budgets: list[tuple[str, VerifyBudget]]):
        self.budgets = budgets

    def setup(self, seed: int, workdir: Path):
        return [(name, b, expected_checked(name, b)) for name, b in self.budgets]

    def run_pass(self, state, tracer, tick) -> PassResult:
        res = PassResult()
        for name, budget, expected in state:
            tick()
            start = time.perf_counter()
            try:
                report = verify.verify_reduction(name, budget)
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                res.op_times.append(time.perf_counter() - start)
                res.attempted += expected
                res.failed += expected
                res.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            res.op_times.append(time.perf_counter() - start)
            res.attempted += report.instances_checked
            res.failed += len(report.failures)
            if report.instances_checked != expected:
                res.errors.append(
                    f"{name}: checked {report.instances_checked}, expected {expected}"
                )
            for f in report.failures:
                res.errors.append(
                    f"{name}: {f.kind} failure lhs={f.lhs} rhs={f.rhs}: {f.instance!r}"
                )
        return res


class SolveWorkload:
    """Operations are ``cli.main(["solve", ...])`` calls; each is timed
    alone, and its output is checked outside the timed region."""

    def setup(self, seed: int, workdir: Path):
        refs = solve_pool.load_refs()
        return solve_pool.write_ops(seed, refs, workdir / f"solve-seed{seed}")

    def run_pass(self, state, tracer, tick) -> PassResult:
        res = PassResult()
        for op in state:
            tick()
            out = stdio.StringIO()
            err = stdio.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
            except Exception as exc:  # counted as a failed call
                code = f"{type(exc).__name__}: {exc}"
            res.op_times.append(time.perf_counter() - start)
            res.attempted += 1
            with tracer.paused():
                ok = isinstance(code, int) and solve_pool.check(op, code, out.getvalue())
            if not ok:
                res.failed += 1
                res.errors.append(
                    f"{' '.join(op.argv[1:2] + op.argv[4:])} on {Path(op.argv[3]).name}: "
                    f"exit {code}, printed {out.getvalue()[:40]!r}, expected {op.expect}"
                )
        return res


def make(name: str):
    if name == "verify-refute":
        # Short operations: the speed probe samples only between them, and
        # R6 at max_n=3, l=5 would be one operation of seconds.  High l
        # comes from the two-vertex host instead.
        return VerifyWorkload([
            ("R6", VerifyBudget(max_n=3, ls=(3, 4))),
            ("R6", VerifyBudget(max_n=2, ls=(5, 6))),
            ("R4", VerifyBudget(max_n=4, ks=(4, 5), ls=(3,))),
        ])
    if name == "verify-mixed":
        return VerifyWorkload([
            ("R1", VerifyBudget(max_n=2, max_m=4)),
            ("R2", VerifyBudget(max_n=2)),
            ("R3", VerifyBudget(max_n=4, max_terminals=4)),
            ("R4", VerifyBudget(max_n=4, ks=(4, 5), ls=(2,))),
        ])
    if name == "solve":
        return SolveWorkload()
    raise ValueError(f"unknown workload {name!r}")
