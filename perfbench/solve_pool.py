"""The `solve` workload's instances, their reference answers, and the
checks applied to every `genconn solve` call.

Instances come from a fixed pool built from ``POOL_SEED``, so reference
answers can be computed once for every instance any run seed can draw
(``python3 perfbench/run.py refs`` writes them to ``solve_refs.json``).
The pool is drawn by input properties fixed in advance: order, edge
density, terminal count and a cap on the minimum terminal degree.  A run
seed only chooses which pool instances, terminal sets and pairs a run
uses.

References never come from the packing kernel: closed forms for complete
graphs, cycles and the named families, unit-capacity max-flow for
|S| = 2, and the brute-force oracles of ``tests/oracles.py`` otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import random
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from genconn import graphs, io, solver, verify
from genconn.graphs import Graph, SteinerTree

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "solve_refs.json"

POOL_SEED = 13046153
RANDOM_ORDERS = (5, 6, 7)
DENSITIES = (("sparse", 0.35), ("medium", 0.55))
TERMINAL_COUNTS = (2, 3, 4)
MAX_MIN_TERMINAL_DEGREE = 4
POOL_PER_STRATUM = 10
DRAW_PER_STRATUM = 5
# (order, terminal counts) of the complete graphs; closed form for any S.
COMPLETE = ((4, (2, 3, 4)), (5, (2, 3, 4, 5)), (6, (2,)), (7, (2,)))
SUBSET_POOL = 8  # random order-5 graphs for kappa-k / lambda-k
SUBSET_DRAW = 3
SUBSET_KS = (2, 3)
SUBSET_COMPLETE = (4, 5)
CYCLE_N = 200


class RefsError(RuntimeError):
    """solve_refs.json does not describe the pool this code generates."""


# ---------------------------------------------------------------------------
# Graph families


def complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def wheel(rim: int) -> Graph:
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph.from_edges(rim + 1, edges)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


# name -> (graph, classical vertex connectivity, classical edge connectivity)
FAMILIES = {
    "K3,3": (complete_bipartite(3, 3), 3, 3),
    "K3,4": (complete_bipartite(3, 4), 3, 3),
    "K2,5": (complete_bipartite(2, 5), 2, 2),
    "petersen": (petersen(), 3, 3),
    "grid3x3": (grid(3, 3), 2, 2),
    "grid3x4": (grid(3, 4), 2, 2),
    "wheel5": (wheel(5), 3, 3),
    "wheel7": (wheel(7), 3, 3),
}


def complete_value(n: int, k: int) -> int:
    """kappa_S(K_n) = lambda_S(K_n) = n - ceil(|S|/2) for any S of size k."""
    return n - (k + 1) // 2


# ---------------------------------------------------------------------------
# The pool


@dataclass(frozen=True)
class Instance:
    key: str
    graph: Graph
    terminals: tuple[int, ...]


def _random_connected(rng: random.Random, n: int, m: int) -> Graph:
    slots = list(combinations(range(n), 2))
    while True:
        g = Graph.from_edges(n, rng.sample(slots, m))
        if graphs.is_connected(g):
            return g


def random_pool() -> list[Instance]:
    """POOL_PER_STRATUM instances per (order, density, terminal count)
    stratum; terminal sets whose minimum degree exceeds the cap are
    redrawn."""
    rng = random.Random(POOL_SEED)
    out = []
    for n in RANDOM_ORDERS:
        for dname, density in DENSITIES:
            m = max(n - 1, round(density * n * (n - 1) / 2))
            for k in TERMINAL_COUNTS:
                for i in range(POOL_PER_STRATUM):
                    while True:
                        g = _random_connected(rng, n, m)
                        s = tuple(sorted(rng.sample(range(n), k)))
                        if min(g.degree(t) for t in s) <= MAX_MIN_TERMINAL_DEGREE:
                            break
                    out.append(Instance(f"r{n}-{dname}-k{k}-{i}", g, s))
    return out


def subset_pool() -> list[Instance]:
    rng = random.Random(POOL_SEED + 1)
    m = round(dict(DENSITIES)["medium"] * 10)
    return [
        Instance(f"sub5-{i}", _random_connected(rng, 5, m), ())
        for i in range(SUBSET_POOL)
    ]


# ---------------------------------------------------------------------------
# Reference answers


def _max_flow(n: int, arcs: list[tuple[int, int, int]], s: int, t: int) -> int:
    """Augmenting-path max flow on an explicit arc list."""
    cap: dict[tuple[int, int], int] = {}
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v, c in arcs:
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj[u].add(v)
        adj[v].add(u)
    flow = 0
    while True:
        prev = {s: s}
        queue = [s]
        for u in queue:
            for v in sorted(adj[u]):
                if v not in prev and cap[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return flow
        v = t
        while v != s:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def pair_values(g: Graph, u: int, v: int) -> tuple[int, int]:
    """(internally disjoint, edge-disjoint) u-v path counts, by Menger."""
    big = g.n
    arcs = [(2 * x, 2 * x + 1, big if x in (u, v) else 1) for x in range(g.n)]
    for a, b in g.edges:
        arcs += [(2 * a + 1, 2 * b, 1), (2 * b + 1, 2 * a, 1)]
    kappa = _max_flow(2 * g.n, arcs, 2 * u + 1, 2 * v)
    lam = _max_flow(g.n, [(a, b, 1) for a, b in g.edges] + [(b, a, 1) for a, b in g.edges], u, v)
    return kappa, lam


def _load_oracles():
    path = HERE.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("genconn_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_refs() -> dict:
    """Reference answers for every instance of the pool."""
    oracles = _load_oracles()
    timings = {"flow_s": 0.0, "oracle_s": 0.0}

    def values(g: Graph, s: tuple[int, ...]) -> tuple[int, int, str]:
        start = time.perf_counter()
        if len(s) == 2:
            kappa, lam = pair_values(g, *s)
            timings["flow_s"] += time.perf_counter() - start
            return kappa, lam, "flow"
        kappa = oracles.max_packing(g, s, "vertex")
        lam = oracles.max_packing(g, s, "edge")
        timings["oracle_s"] += time.perf_counter() - start
        return kappa, lam, "oracle"

    rand = {}
    for inst in random_pool():
        kappa, lam, source = values(inst.graph, inst.terminals)
        rand[inst.key] = {
            "edges": [list(e) for e in inst.graph.edges],
            "terminals": list(inst.terminals),
            "kappa_set": kappa,
            "lambda_set": lam,
            "source": source,
        }
    subsets = {}
    for inst in subset_pool():
        entry = {"edges": [list(e) for e in inst.graph.edges], "kappa_k": {}, "lambda_k": {}}
        for k in SUBSET_KS:
            pairs = [values(inst.graph, s) for s in combinations(range(inst.graph.n), k)]
            entry["kappa_k"][str(k)] = min(p[0] for p in pairs)
            entry["lambda_k"][str(k)] = min(p[1] for p in pairs)
        subsets[inst.key] = entry
    families = {}
    for name, (g, kappa, lam) in FAMILIES.items():
        start = time.perf_counter()
        pairs = {f"{u},{v}": list(pair_values(g, u, v)) for u, v in combinations(range(g.n), 2)}
        timings["flow_s"] += time.perf_counter() - start
        if min(p[0] for p in pairs.values()) != kappa or min(p[1] for p in pairs.values()) != lam:
            raise RefsError(f"closed form for {name} disagrees with Menger flows")
        families[name] = {"kappa": kappa, "lambda": lam, "pairs": pairs}
    return {
        "pool_seed": POOL_SEED,
        "reference_time_s": {k: round(v, 3) for k, v in timings.items()},
        "random": rand,
        "subset": subsets,
        "families": families,
    }


def write_refs() -> dict:
    refs = build_refs()
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return refs


def load_refs() -> dict:
    refs = json.loads(REFS_PATH.read_text(encoding="utf-8"))
    if refs.get("pool_seed") != POOL_SEED:
        raise RefsError(f"{REFS_PATH.name} was built for another pool")
    return refs


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    """One `genconn solve` call and the answer it must print.

    ``kind`` is "value" (maximum with witness trees), "decide" or "int";
    ``vertex_mode`` says how to re-check a witness.
    """

    argv: tuple[str, ...]
    kind: str
    expect: object
    graph: Graph
    terminals: tuple[int, ...] = ()
    vertex_mode: bool = False


def _pool_entry(refs: dict, table: str, inst: Instance) -> dict:
    entry = refs[table].get(inst.key)
    if entry is None or [tuple(e) for e in entry["edges"]] != list(inst.graph.edges) or (
        "terminals" in entry and tuple(entry["terminals"]) != inst.terminals
    ):
        raise RefsError(
            f"{REFS_PATH.name} is stale for {inst.key}; "
            "rebuild it with `python3 perfbench/run.py refs`"
        )
    return entry


def draw(seed: int, refs: dict) -> list[tuple[str, Graph, tuple[int, ...], dict]]:
    """The instances of one run: (file stem, graph, terminals, answers).
    Every answer key maps to the value the matching solve call must print.
    """
    rng = random.Random(seed)
    out = []
    pool = random_pool()
    for start in range(0, len(pool), POOL_PER_STRATUM):
        for inst in rng.sample(pool[start:start + POOL_PER_STRATUM], DRAW_PER_STRATUM):
            entry = _pool_entry(refs, "random", inst)
            out.append((inst.key, inst.graph, inst.terminals,
                        {"kappa-set": entry["kappa_set"], "lambda-set": entry["lambda_set"]}))
    for n, ks in COMPLETE:
        g = complete(n)
        for k in ks:
            s = tuple(sorted(rng.sample(range(n), k)))
            v = complete_value(n, k)
            out.append((f"K{n}-k{k}", g, s, {"kappa-set": v, "lambda-set": v}))
    for name, (g, kappa, lam) in FAMILIES.items():
        u, v = sorted(rng.sample(range(g.n), 2))
        pk, pl = refs["families"][name]["pairs"][f"{u},{v}"]
        out.append((name, g, (u, v), {
            "kappa": kappa, "lambda": lam, "kappa-set*": pk, "lambda-set*": pl,
        }))
    for inst in rng.sample(subset_pool(), SUBSET_DRAW):
        entry = _pool_entry(refs, "subset", inst)
        answers = {}
        for k in SUBSET_KS:
            answers[f"kappa-k {k}"] = entry["kappa_k"][str(k)]
            answers[f"lambda-k {k}"] = entry["lambda_k"][str(k)]
        out.append((inst.key, inst.graph, (), answers))
    for n in SUBSET_COMPLETE:
        answers = {}
        for k in SUBSET_KS:
            answers[f"kappa-k {k}"] = answers[f"lambda-k {k}"] = complete_value(n, k)
        out.append((f"K{n}-subsets", complete(n), (), answers))
    r = rng.randrange(CYCLE_N)
    s = tuple(sorted((r, (r + CYCLE_N // 2) % CYCLE_N)))
    out.append((f"C{CYCLE_N}", cycle(CYCLE_N), s, {"kappa-set*": 2, "lambda-set*": 2}))
    return out


def write_ops(seed: int, refs: dict, workdir: Path) -> list[Op]:
    """Write one instance file per drawn instance and return the calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for stem, g, s, answers in draw(seed, refs):
        path = workdir / f"{stem}.graph"
        path.write_text(io.serialize_graph(g, s or None), encoding="utf-8")
        for key, value in answers.items():
            problem, _, arg = key.partition(" ")
            if problem.endswith("*"):  # maximum with witness only
                problem = problem[:-1]
            elif problem.endswith("-set"):
                for l, answer in ((value, "yes"), (value + 1, "no")):
                    ops.append(Op(("solve", problem, "-g", str(path), "--decide", str(l)),
                                  "decide", answer, g, s))
            if problem.endswith("-set"):
                ops.append(Op(("solve", problem, "-g", str(path), "--witness"), "value",
                              value, g, s, vertex_mode=problem == "kappa-set"))
            elif arg:
                ops.append(Op(("solve", problem, "-g", str(path), "-k", arg), "int", value, g))
            else:
                ops.append(Op(("solve", problem, "-g", str(path)), "int", value, g))
    return ops


def _parse_tree(line: str) -> SteinerTree:
    if not line.startswith("tree: "):
        raise ValueError(f"not a tree line: {line!r}")
    edges = []
    for part in line[len("tree: "):].split(";"):
        tag, u, v = part.split()
        if tag != "e":
            raise ValueError(f"not an edge: {part!r}")
        edges.append(graphs.normalize_edge(int(u), int(v)))
    vertices = sorted({x for e in edges for x in e})
    return SteinerTree(tuple(vertices), tuple(sorted(edges)))


def check(op: Op, exit_code: int, stdout: str) -> bool:
    """True iff the call exited 0 and printed the reference answer; a
    witness must also pass ``verify.verify_packing_result``."""
    if exit_code != 0:
        return False
    lines = stdout.splitlines()
    if op.kind == "decide":
        return lines == [op.expect]
    if op.kind == "int":
        return lines == [str(op.expect)]
    if not lines or lines[0] != str(op.expect):
        return False
    try:
        witness = tuple(_parse_tree(line) for line in lines[1:])
    except ValueError:
        return False
    result = solver.PackingResult(op.expect, witness)
    return verify.verify_packing_result(op.graph, op.terminals, result, op.vertex_mode)
