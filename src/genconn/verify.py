"""Instance generators and the equivalence harness that certifies each
reduction against brute-force oracles at desk scale.

``REDUCTIONS`` is the one table of the six reductions.  A row names the
reduction and its ``genconn reduce`` kind, its default budget, an
instance generator over a budget, the builder and its closed-form size
identity in :mod:`genconn.reductions`, the source and target deciders,
and any extra check.  ``verify_reduction`` runs every row through one
loop: for each generated instance it builds the target, checks the size
identity, then compares the two deciders' verdicts and records any
disagreement.  ``REDUCTION_NAMES``, ``DEFAULT_BUDGETS`` and the
``reduce`` command's kinds are views of the table.

Reports are deterministic: generators are exhaustive below their bounds,
random sampling is seeded, and failures are sorted by their replayable
serialization.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterator, NamedTuple

from . import io, reductions, solver, trees
from .graphs import CnfFormula, Graph, GraphError, ThreeDMInstance, is_connected

GEN_GRAPH_MAX_N = 6
GEN_3DM_MAX_N = 2
GEN_TRIPARTITE_MAX_Q = 2


class VerifyBudget(NamedTuple):
    """Generator bounds for one verification run.

    ``max_n`` bounds the host graph order (R3, R4, R6), the part size q
    (R2), the ground-set size (R1) or the variable count (R5); ``max_m``
    bounds triple/clause counts; ``ks``/``ls`` choose arities and
    thresholds; ``samples`` seeds the random family where one exists.
    """

    max_n: int
    max_m: int | None = None
    max_terminals: int | None = None
    ks: tuple[int, ...] = ()
    ls: tuple[int, ...] = ()
    samples: int = 0
    seed: int = 0

    def describe(self) -> str:
        """Every field that differs from its default, and the seed."""
        defaults = self._field_defaults
        parts = []
        for name, value in zip(self._fields, self):
            if name == "seed" or name not in defaults or value != defaults[name]:
                if isinstance(value, tuple):
                    value = ",".join(map(str, value))
                parts.append(f"{name}={value}")
        return " ".join(parts)


class Failure(NamedTuple):
    kind: str  # "equivalence", "size" or "witness"
    instance: str  # replayable serialization
    lhs: str
    rhs: str


class VerificationReport(NamedTuple):
    reduction_name: str
    budget: VerifyBudget
    instances_checked: int
    failures: tuple[Failure, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self, with_time: bool = True) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (
            f"{verdict} {self.reduction_name} {self.instances_checked} "
            f"{len(self.failures)}"
        )
        if with_time:
            line += f" {self.wall_time:.3f}"
        return line

    def _body(self) -> list[str]:
        out = [
            f"reduction: {self.reduction_name}",
            f"budget: {self.budget.describe()}",
            f"checked: {self.instances_checked}",
            f"failures: {len(self.failures)}",
        ]
        for i, f in enumerate(sorted(self.failures, key=lambda f: f.instance), 1):
            out.append(f"failure {i} kind={f.kind} lhs={f.lhs} rhs={f.rhs}")
            out.append("instance:")
            out.extend("    " + line for line in f.instance.rstrip("\n").split("\n"))
        return out

    def text(self) -> str:
        """Full report; the summary line carries wall-clock seconds."""
        return "\n".join(self._body() + [self.summary_line(with_time=True)]) + "\n"

    def canonical_text(self) -> str:
        """Timing-free form; byte-identical across runs with equal budgets."""
        return "\n".join(self._body() + [self.summary_line(with_time=False)]) + "\n"


# ---------------------------------------------------------------------------
# Generators


def _guard(name: str, value: int, limit: int) -> None:
    if not (1 <= value <= limit):
        raise solver.GuardError(
            f"{name}={value} outside the exhaustive-generation guard 1..{limit}"
        )


def _subsets(items: list) -> Iterator[tuple]:
    """Every subset of ``items``, in item order, by ascending bit mask
    (bit i for ``items[i]``): the subsets of the low and of the high half,
    each built once by doubling, joined with the high half in the outer
    loop, so k items keep O(2^(k/2)) tuples in memory."""
    half = len(items) // 2
    lows, highs = [()], [()]
    for x in items[:half]:
        lows += [s + (x,) for s in lows]
    for x in items[half:]:
        highs += [s + (x,) for s in highs]
    for hi in highs:
        for lo in lows:
            yield lo + hi


def gen_connected_graphs(max_n: int) -> Iterator[Graph]:
    """Every labeled connected graph with 1 <= n <= max_n, exactly once,
    by ascending order and ascending edge-subset mask."""
    _guard("max_n", max_n, GEN_GRAPH_MAX_N)
    for n in range(1, max_n + 1):
        for edges in _subsets(list(combinations(range(n), 2))):
            g = Graph(n, edges)
            if is_connected(g):
                yield g


def gen_3dm(max_n: int, max_m: int | None = None) -> Iterator[ThreeDMInstance]:
    """Every matching instance with 1 <= n <= max_n and m <= max_m, by
    ascending n and ascending triple-subset mask over the lexicographic
    triple universe."""
    _guard("max_n", max_n, GEN_3DM_MAX_N)
    for n in range(1, max_n + 1):
        universe = [
            (u, v, w) for u in range(n) for v in range(n) for w in range(n)
        ]
        for triples in _subsets(universe):
            if max_m is None or len(triples) <= max_m:
                yield ThreeDMInstance(n, triples)


def _literals(num_vars: int) -> list[int]:
    return [lit for v in range(1, num_vars + 1) for lit in (v, -v)]


def gen_cnf(max_vars: int, max_clauses: int, seed: int = 0, samples: int = 0
            ) -> Iterator[CnfFormula]:
    """The exhaustive family with num_vars <= min(max_vars, 2) and
    m <= min(max_clauses, 2), followed by ``samples`` seeded-random
    formulas within the full bounds."""
    _guard("max_vars", max_vars, solver.SAT_GUARD_MAX_VARS)
    for nv in range(1, min(max_vars, 2) + 1):
        clauses = list(combinations_with_replacement(_literals(nv), 3))
        for m in range(1, min(max_clauses, 2) + 1):
            for combo in combinations_with_replacement(clauses, m):
                yield CnfFormula(nv, tuple(combo))
    rng = random.Random(seed)
    for _ in range(samples):
        nv = rng.randint(1, max_vars)
        m = rng.randint(1, max_clauses)
        lits = _literals(nv)
        yield CnfFormula(
            nv,
            tuple(
                tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)
            ),
        )


def gen_balanced_tripartite(q: int) -> Iterator[Graph]:
    """Every tripartite graph with parts {0..q-1}, {q..2q-1}, {2q..3q-1},
    over all subsets of the cross-part edge slots."""
    _guard("q", q, GEN_TRIPARTITE_MAX_Q)
    parts = tuple([0] * q + [1] * q + [2] * q)
    slots = [
        (u, v)
        for u in range(3 * q)
        for v in range(u + 1, 3 * q)
        if parts[u] != parts[v]
    ]
    for edges in _subsets(slots):
        yield Graph(3 * q, edges, parts)


# ---------------------------------------------------------------------------
# Witness re-verification


def verify_packing_result(
    g: Graph, s: tuple[int, ...], result: solver.PackingResult, vertex_mode: bool
) -> bool:
    """Re-check a witness with the tree predicates: every tree is an
    S-tree and all pairs satisfy the requested disjointness."""
    if len(result.witness) != result.value:
        return False
    for t in result.witness:
        if not trees.is_steiner_tree(g, s, t):
            return False
    for t1, t2 in combinations(result.witness, 2):
        if vertex_mode:
            if not trees.internally_disjoint(t1, t2, s):
                return False
        elif not trees.edge_disjoint(t1, t2):
            return False
    return True




# ---------------------------------------------------------------------------
# The reduction table


# (describe, args): describe() is the instance's replayable text, made only
# for an instance that fails.  It looks ``io.serialize_<kind>`` up when
# called, so that wrappers put on that attribute see every call.
Case = tuple[Callable[[], str], tuple]


class Reduction(NamedTuple):
    """One row of the reduction table.  The builder and size identity are
    named, and generators, deciders and checks look up module attributes
    when called, so wrappers put on those attributes see every call."""

    name: str
    kind: str  # the ``genconn reduce`` kind
    budget: VerifyBudget  # the default
    cases: Callable[[VerifyBudget], Iterator[Case]]
    build: str  # reductions.<build>(*args)
    size: str  # reductions.<size>(*args), the closed-form shape
    source: Callable[..., object]  # decides args
    target: Callable[..., object]  # decides the built output
    reads: str  # ``reduce`` parses its input with io.parse_<reads>
    flags: tuple[str, ...] = ()  # ``reduce`` options appended to its args
    label: str = "l"  # name of the threshold in the ``reduce`` summary
    needs: tuple[str, ...] = ()  # budget fields that must be non-empty
    # extra (lhs, rhs) witness failures from (out, *args, lhs, rhs)
    check: Callable[..., Iterator[tuple[str, str]]] | None = None


def _text(kind: str, *args, suffix: str = "") -> Callable[[], str]:
    return lambda: getattr(io, f"serialize_{kind}")(*args) + suffix


def _each(instances, kind: str) -> Iterator[Case]:
    for inst in instances:
        yield _text(kind, inst), (inst,)


def _tripartite_cases(b: VerifyBudget) -> Iterator[Case]:
    _guard("max_n", b.max_n, GEN_TRIPARTITE_MAX_Q)
    for q in range(1, b.max_n + 1):
        for g in gen_balanced_tripartite(q):
            yield _text("graph", g), (g, q)


def _graph_cases(b: VerifyBudget, sizes, params=(("", ()),)) -> Iterator[Case]:
    """Every connected graph of the budget with every terminal set of a
    size in ``sizes``, once per (text suffix, extra arguments) in
    ``params``."""
    for g in gen_connected_graphs(b.max_n):
        for size in sizes:
            for s in combinations(range(g.n), size):
                for suffix, extra in params:
                    yield _text("graph", g, s, suffix=suffix), (g, s, *extra)


def _packing_witnesses(out, g, s, lam, kap) -> Iterator[tuple[str, str]]:
    if not verify_packing_result(g, s, lam, vertex_mode=False):
        yield "lambda witness", "invalid"
    if not verify_packing_result(out.graph, out.terminals, kap, vertex_mode=True):
        yield "kappa witness", "invalid"


REDUCTIONS: dict[str, Reduction] = {r.name: r for r in (
    Reduction(
        "R1", "3dm-p1", VerifyBudget(max_n=2, max_m=3),
        lambda b: _each(gen_3dm(b.max_n, b.max_m), "3dm"),
        "reduce_3dm_to_p1_with_roles", "size_3dm_to_p1",
        source=lambda inst: solver.decide_3dm(inst),
        target=lambda out: solver.decide_problem1(out.graph),
        reads="3dm", label="q",
    ),
    Reduction(
        "R2", "p1-kappa", VerifyBudget(max_n=2), _tripartite_cases,
        "reduce_p1_to_kappa", "size_p1_to_kappa",
        source=lambda g, q: solver.decide_problem1(g),
        target=lambda out: solver.decide_kappa_set(out.graph, out.terminals, out.threshold),
        reads="graph", label="q",
    ),
    Reduction(
        "R3", "linegraph", VerifyBudget(max_n=5, max_terminals=4),
        lambda b: _graph_cases(b, range(2, (b.max_terminals or 4) + 1)),
        "reduce_lambda_to_kappa", "size_lambda_to_kappa",
        source=lambda g, s: solver.lambda_set(g, s),
        target=lambda out: solver.kappa_set(out.graph, out.terminals),
        reads="graph_and_set", check=_packing_witnesses,
    ),
    Reduction(
        "R4", "expand-k", VerifyBudget(max_n=4, ks=(4, 5), ls=(2, 3)),
        lambda b: _graph_cases(b, (3,), [(f"# params k={k} l={l}\n", (l, k))
                                         for k in b.ks for l in b.ls]),
        "reduce_lambda3_to_lambdak", "size_lambda3_to_lambdak",
        source=lambda g, s, l, k: solver.decide_lambda_set(g, s, l),
        target=lambda out: solver.decide_lambda_set(out.graph, out.terminals, out.threshold),
        reads="graph_and_set", flags=("l", "k"), needs=("ks", "ls"),
    ),
    Reduction(
        "R5", "3sat-lambda2", VerifyBudget(max_n=3, max_m=3, samples=200),
        lambda b: _each(gen_cnf(b.max_n, b.max_m or 2, b.seed, b.samples), "cnf"),
        "reduce_3sat_to_lambda2", "size_3sat_to_lambda2",
        source=lambda phi: solver.decide_3sat(phi),
        target=lambda out: solver.decide_lambda_set(out.graph, out.terminals, out.threshold),
        reads="cnf",
    ),
    Reduction(
        "R6", "expand-l", VerifyBudget(max_n=4, ls=(3, 4)),
        lambda b: _graph_cases(b, range(2, b.max_n + 1), [(f"# params l={l}\n", (l,))
                                                          for l in b.ls]),
        "reduce_lambda2_to_lambdal", "size_lambda2_to_lambdal",
        source=lambda g, s, l: solver.decide_lambda_set(g, s, 2),
        target=lambda out: solver.decide_lambda_set(out.graph, out.terminals, out.threshold),
        reads="graph_and_set", flags=("l",), needs=("ls",),
    ),
)}

REDUCTION_NAMES = tuple(REDUCTIONS)
DEFAULT_BUDGETS = {name: r.budget for name, r in REDUCTIONS.items()}


def reduction(name: str) -> Reduction:
    """The table row of a reduction; unknown names raise GraphError."""
    if name not in REDUCTIONS:
        raise GraphError(f"unknown reduction {name!r}; expected one of {REDUCTION_NAMES}")
    return REDUCTIONS[name]


def _verdict(result):
    """A decider's answer: a bool, or the value of a packing."""
    return result.value if isinstance(result, solver.PackingResult) else result


def _shape(sizes: dict[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in sizes.items())


def verify_reduction(name: str, budget: VerifyBudget | None = None) -> VerificationReport:
    """Certify one reduction against its brute-force oracles.  Unknown
    names and budgets that leave a field the reduction needs empty raise
    GraphError; budgets beyond the generator guards raise GuardError."""
    row = reduction(name)
    if budget is None:
        budget = row.budget
    for field in row.needs:
        if not getattr(budget, field):
            raise GraphError(f"{name} checks nothing with an empty budget {field}")
    build = getattr(reductions, row.build)
    size = getattr(reductions, row.size)
    start = time.perf_counter()
    checked = 0
    failures: list[Failure] = []
    for describe, args in row.cases(budget):
        checked += 1
        out = build(*args)
        want = size(*args)
        got = reductions.measure(out, want)
        if got != want:
            failures.append(Failure("size", describe(), _shape(got), _shape(want)))
            continue
        lhs, rhs = row.source(*args), row.target(out)
        if row.check is not None:
            failures.extend(Failure("witness", describe(), a, b)
                            for a, b in row.check(out, *args, lhs, rhs))
        lhs, rhs = _verdict(lhs), _verdict(rhs)
        if lhs != rhs:
            failures.append(Failure("equivalence", describe(), str(lhs), str(rhs)))
    elapsed = time.perf_counter() - start
    failures.sort(key=lambda f: (f.instance, f.kind))
    return VerificationReport(name, budget, checked, tuple(failures), elapsed)
