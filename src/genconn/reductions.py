"""Executable instance transformations between the hard problems.

Six constructions, each returning the transformed instance together with
the target terminal set, threshold, and a role label for every
constructed vertex:

* matching-to-partition: 3-dimensional matching -> connected rainbow
  partition of a balanced tripartite graph (``reduce_3dm_to_p1``);
* partition-to-kappa: rainbow partition -> internally disjoint tree
  packing with three apex terminals (``reduce_p1_to_kappa``);
* edge-to-vertex packing: lambda(S) -> kappa(S) on the line-graph
  augmentation (``reduce_lambda_to_kappa``);
* terminal expansion: 3-terminal edge packing -> k-terminal edge packing
  (``reduce_lambda3_to_lambdak``);
* satisfiability-to-packing: 3-SAT -> two edge-disjoint S-trees
  (``reduce_3sat_to_lambda2``);
* threshold expansion: 2-tree decision -> l-tree decision
  (``reduce_lambda2_to_lambdal``).

Vertex ids are deterministic: original vertices keep their ids and
constructed vertices are appended in documented block order, so the
serialized outputs are reproducible byte for byte.

After each construction, ``size_<construction>`` takes the builder's
arguments and gives the output's shape in closed form, keyed as in
:func:`measure`.  The verification harness compares the two.

The harness builds every terminal set of a host in a row, so two
builders memoize the part that does not read the terminal set, keyed
by exactly what it reads: the line-graph augmentation keeps its last
host's graph and roles, and terminal expansion keeps a bounded number
of hub blocks keyed by (n, min S, l, k).  The other four do not: the
harness never repeats an input of the matching, partition or
satisfiability constructions, and threshold expansion's proxy block
reads the whole terminal set.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable

from .graphs import (
    CnfFormula,
    Graph,
    GraphError,
    ReductionOutput,
    ThreeDMInstance,
    is_connected,
    line_graph,
    normalize_edge,
    vertex_set,
)
from .trees import _check_terminals

# Per-triple gadget: 18 fresh vertices t1..t18 in three arms of six, one
# arm per original vertex of the triple, plus a two-edge centre path
# t6 - t12 - t18.  Within an arm with head h the eight edges are chosen
# so that exactly these rainbow 3-sets induce connected subgraphs:
#   {h,t1,t2} {t1,t2,t3} {t3,t4,t5} {t4,t5,t6} {t1,t3,t5} {h,t2,t4}
# while {h,t4,t5}, {t2,t3,t4}, {h,t1,t5} and every other 3-set through t6
# stay disconnected.  Those are precisely the degrees of freedom the
# partition argument needs: a gadget contributes seven partition sets
# (freeing its head) exactly when the centre set {t6,t12,t18} is used,
# and six otherwise.  The equivalence with the matching instance is
# machine-checked exhaustively for n=1 and for all 256 instances with
# n=2 (see the R1 verification harness), plus seeded n=3 samples.
_ARM_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6))

# part of t_j (1-based j), matching the balanced tripartition: six gadget
# vertices land in each part.
_GADGET_PARTS = (1, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1, 2)


_SHAPE = {
    "V": lambda out: out.graph.n,
    "E": lambda out: out.graph.m,
    "S": lambda out: len(out.terminals),
    "terminals": lambda out: out.terminals,
    "degrees": lambda out: tuple(out.graph.degree(t) for t in out.terminals),
    "q": lambda out: out.threshold,
    "parts": lambda out: tuple(len(p) for p in out.graph.parts()),
}


def measure(out: ReductionOutput, keys: Iterable[str]) -> dict[str, object]:
    """Order V, size E, terminal count S, terminals, their degrees,
    threshold q and part sizes of ``out``, as named in ``keys``."""
    return {key: _SHAPE[key](out) for key in keys}


def reduce_3dm_to_p1(inst: ThreeDMInstance) -> tuple[Graph, int]:
    """Balanced tripartite graph whose connected rainbow partitions
    correspond to perfect matchings of the instance; returns (graph, q)
    with the shape of :func:`size_3dm_to_p1`."""
    out = reduce_3dm_to_p1_with_roles(inst)
    assert out.threshold is not None
    return out.graph, out.threshold


def reduce_3dm_to_p1_with_roles(inst: ThreeDMInstance) -> ReductionOutput:
    """Same construction carrying the gadget role map; the threshold field
    holds the part size q."""
    if inst.n < 1:
        raise GraphError("matching instance needs at least one element per set")
    n, m = inst.n, inst.m
    parts = [0] * n + [1] * n + [2] * n + [0] * (18 * m)
    edges: list[tuple[int, int]] = []
    roles: dict[int, str] = {}
    for u in range(n):
        roles[u] = f"u{u}"
        roles[n + u] = f"v{u}"
        roles[2 * n + u] = f"w{u}"
    for i, (u, v, w) in enumerate(inst.triples):
        base = 3 * n + 18 * i
        for j in range(1, 19):
            vid = base + j - 1
            roles[vid] = f"t{i}_{j}"
            parts[vid] = _GADGET_PARTS[j - 1]
        heads = (u, n + v, 2 * n + w)
        for arm in range(3):
            ids = (heads[arm],) + tuple(base + 6 * arm + d for d in range(6))
            for a, b in _ARM_EDGES:
                x, y = ids[a], ids[b]
                edges.append((x, y) if x < y else (y, x))
        edges.append((base + 5, base + 11))    # t6 - t12
        edges.append((base + 11, base + 17))   # t12 - t18
    g = Graph(3 * n + 18 * m, tuple(edges), tuple(parts))
    return ReductionOutput(g, (), n + 6 * m, roles)


def size_3dm_to_p1(inst: ThreeDMInstance) -> dict[str, object]:
    n, m = inst.n, inst.m
    q = n + 6 * m
    return {"V": 3 * n + 18 * m, "E": 26 * m, "q": q, "parts": (q, q, q)}


def reduce_p1_to_kappa(g: Graph, q: int | None = None) -> ReductionOutput:
    """Adjoin apex vertices a, b, c joined to the three parts; a partition
    into connected rainbow triples exists iff there are q internally
    disjoint trees connecting {a, b, c}."""
    size = g.part_size()
    if q is None:
        q = size
    elif q != size:
        raise GraphError(f"q={q} does not match part size {size}")
    a, b, c = g.n, g.n + 1, g.n + 2
    edges = list(g.edges)
    for apex, part in zip((a, b, c), g.parts()):
        edges.extend((v, apex) for v in part)
    out = Graph(g.n + 3, tuple(edges))
    return ReductionOutput(out, (a, b, c), q, {a: "a", b: "b", c: "c"})


def size_p1_to_kappa(g: Graph, q: int) -> dict[str, object]:
    """Each apex has degree q, the part size."""
    return {"V": 3 * q + 3, "E": g.m + 3 * q, "degrees": (q, q, q)}


def reduce_lambda_to_kappa(g: Graph, s: Iterable[int]) -> ReductionOutput:
    """Line-graph augmentation: new graph on V(g) plus one vertex per edge,
    with line-graph adjacencies and vertex-edge incidences; terminals are
    unchanged and lambda_g(S) equals kappa of the new graph at S."""
    terminals = _check_terminals(g, s)
    out, roles = _line_graph_augmentation(g)
    return ReductionOutput(out, terminals, None, roles)


@lru_cache(maxsize=1)
def _line_graph_augmentation(g: Graph) -> tuple[Graph, tuple[tuple[int, str], ...]]:
    """The augmented graph of :func:`reduce_lambda_to_kappa` and its
    (vertex, role) pairs, which read only the host.  A disconnected host
    raises, and lru_cache stores no exception, so it raises every time."""
    if not is_connected(g):
        raise GraphError("line-graph reduction requires a connected input")
    n, m = g.n, g.m
    edges: list[tuple[int, int]] = [(n + i, n + j) for i, j in line_graph(g).edges]
    for j, (u, v) in enumerate(g.edges):
        edges.append((u, n + j))
        edges.append((v, n + j))
    return Graph(n + m, tuple(edges)), tuple((n + j, f"e{j}") for j in range(m))


def size_lambda_to_kappa(g: Graph, s: Iterable[int]) -> dict[str, object]:
    """The line graph has sum over v of C(deg v, 2) edges."""
    line_edges = sum(comb(g.degree(v), 2) for v in range(g.n))
    return {"V": g.n + g.m, "E": line_edges + 2 * g.m, "terminals": vertex_set(s)}


def reduce_lambda3_to_lambdak(
    g: Graph, s: Iterable[int], l: int, k: int
) -> ReductionOutput:
    """Pad a 3-terminal edge-packing instance to k terminals: k-3 hub
    vertices, each tied to the first terminal through l parallel length-2
    paths, preserve the packing threshold l."""
    terminals = _check_terminals(g, s)
    if len(terminals) != 3:
        raise GraphError(f"expected exactly 3 terminals, got {len(terminals)}")
    if k < 4:
        raise GraphError(f"target arity k={k} must be at least 4")
    if l < 2:
        raise GraphError(f"threshold l={l} must be at least 2")
    hub_edges, roles, hubs = _hub_block(g.n, terminals[0], l, k)
    out = Graph(g.n + (k - 3) * (l + 1), g.edges + hub_edges)
    return ReductionOutput(out, terminals + hubs, l, roles)


@lru_cache(maxsize=32)
def _hub_block(
    n: int, v1: int, l: int, k: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, str], ...], tuple[int, ...]]:
    """The edges, (vertex, role) pairs and hub ids that
    :func:`reduce_lambda3_to_lambdak` adds to a host of order n whose first
    terminal is v1.  Every spoke is at least n > v1, so each edge is
    already ordered."""
    edges = []
    roles = []
    hubs = []
    for i in range(k - 3):
        hub = n + i * (l + 1)
        hubs.append(hub)
        roles.append((hub, f"a{i + 1}"))
        for jj in range(1, l + 1):
            spoke = hub + jj
            roles.append((spoke, f"a{i + 1}_{jj}"))
            edges.append((v1, spoke))
            edges.append((hub, spoke))
    return tuple(edges), tuple(roles), tuple(hubs)


def size_lambda3_to_lambdak(
    g: Graph, s: Iterable[int], l: int, k: int
) -> dict[str, object]:
    return {"V": g.n + (k - 3) * (l + 1), "E": g.m + 2 * l * (k - 3), "S": k}


def _literal_name(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"xb{-lit}"


def reduce_3sat_to_lambda2(phi: CnfFormula) -> ReductionOutput:
    """Graph whose terminal set S admits two edge-disjoint S-trees iff the
    formula is satisfiable; the threshold is 2.

    Construction.  Let r_i = max(#clauses containing x_i, #clauses
    containing not-x_i, 1), R = sum r_i, and N = sum over clauses of the
    number of distinct literals in the clause.

    * vertices a and b, joined by the edge ab;
    * per clause j: a terminal c'_j adjacent to a and to a clause vertex c_j;
    * per variable i: a cycle t_0 p_0 t_1 p_1 ... t_{2r_i-1} p_{2r_i-1} t_0
      of 2r_i terminals t_k alternating with 2r_i literal nodes p_k; even
      p_k form the x_i side, odd p_k the not-x_i side;
    * per clause j and distinct literal l of j: a connector w_{l,j}
      adjacent to c_j and b.  The k-th clause containing l owns the k-th
      node of l's side; each literal node has one more edge, to its
      connector, or to b when no occurrence is left for it.

    S is every cycle terminal plus every c'_j, which gives the shape of
    :func:`size_3sat_to_lambda2`.

    Proof.  Take two edge-disjoint S-trees and prune both to minimal ones
    (every leaf a terminal); |S| >= 3.

    1. c'_j has degree 2, so each tree holds exactly one of its edges.  A
       tree holding a c'_j holds a path from a to a cycle terminal; through
       any c'_k that path would put both edges of c'_k in one tree, so it
       begins with ab.  Hence the tree T2 that holds ab holds every a c'_j
       and the other tree T1 holds every c'_j c_j.
    2. Literal nodes and connectors have degree 3, and a non-terminal of a
       minimal tree has degree at least 2 in it, so each lies in at most
       one tree.
    3. Cycle terminals have degree 2, so every cycle edge is used, each
       literal node lies in exactly one tree with both its cycle edges, and
       the two nodes next to a terminal lie in different trees.  Around the
       cycle the trees alternate: one side of each variable lies wholly in
       T1.  Call that side true; this is an assignment.
    4. The T2 edges of a cycle form paths t p t whose terminals have no
       other T2 edge, and T2 must reach a, so a node p in T2 uses its third
       edge in T2.  Hence a connector in T1 has its literal node in T1.
    5. c_j is a non-terminal of T1 that holds c'_j c_j, so T1 holds an edge
       from c_j to some connector w_{l,j}.  By 4 the node of l is in T1,
       so l is true and clause j is satisfied.
    6. Conversely, given a satisfying assignment, let T1 hold the true-side
       nodes with their cycle and third edges, w b for their connectors,
       and for each clause c'_j c_j and c_j w_{l,j} for one true literal
       l of j; let T2 hold ab, every a c'_j, the false-side nodes with
       their cycle and third edges, and w b for their connectors.  Every
       cycle terminal has one neighbour on each side, so both are S-trees
       about b, and they share no edge.

    Nothing in the proof asks clauses to be free of tautologies or
    repeated literals, or every variable to occur, so it holds for every
    formula with n >= 1 and m >= 1.

    Vertex blocks: c_j, c'_j per clause; the connectors in clause order,
    each clause's literals in order of first appearance; the variable
    cycles in variable order (t_k at even, p_k at odd offsets); a, b.
    The packing search breaks ties toward low terminal ids; starting from
    the clause pendants, it decides the R5 verification family about four
    times faster than starting from the cycles."""
    n, m = phi.num_vars, phi.num_clauses
    if n < 1 or m < 1:
        raise GraphError("formula must have at least one variable and one clause")

    clause_lits = [tuple(dict.fromkeys(cls)) for cls in phi.clauses]
    owners: dict[int, list[int]] = {lit: [] for i in range(1, n + 1) for lit in (i, -i)}
    for j, lits in enumerate(clause_lits, start=1):
        for lit in lits:
            owners[lit].append(j)
    r = [max(len(owners[i]), len(owners[-i]), 1) for i in range(1, n + 1)]

    def clause(j: int) -> int:  # 1-based clause index
        return 2 * (j - 1)

    def clause_prime(j: int) -> int:
        return 2 * (j - 1) + 1

    roles: dict[int, str] = {}
    connector: dict[tuple[int, int], int] = {}
    next_id = 2 * m
    for j, lits in enumerate(clause_lits, start=1):
        roles[clause(j)] = f"c{j}"
        roles[clause_prime(j)] = f"cp{j}"
        for lit in lits:
            connector[lit, j] = next_id
            roles[next_id] = f"w{j}_{_literal_name(lit)}"
            next_id += 1
    a = next_id + 4 * sum(r)
    b = a + 1
    roles[a], roles[b] = "a", "b"

    edges: list[tuple[int, int]] = [(a, b)]
    for j in range(1, m + 1):
        edges.append((a, clause_prime(j)))
        edges.append((clause(j), clause_prime(j)))
    terminals = [clause_prime(j) for j in range(1, m + 1)]
    for (lit, j), w in connector.items():
        edges.append((clause(j), w))
        edges.append((w, b))
    base = next_id
    for i, ri in enumerate(r, start=1):
        for k in range(2 * ri):
            t, p = base + 2 * k, base + 2 * k + 1
            lit = i if k % 2 == 0 else -i
            roles[t] = f"xh{i}_{k}"
            roles[p] = f"{_literal_name(lit)}_{k // 2}"
            terminals.append(t)
            edges.append((t, p))
            edges.append((p, base + (2 * k + 2) % (4 * ri)))
            occ = owners[lit]
            edges.append((p, connector[lit, occ[k // 2]] if k // 2 < len(occ) else b))
        base += 4 * ri

    out = Graph(b + 1, tuple(normalize_edge(u, v) for u, v in edges))
    return ReductionOutput(out, tuple(sorted(terminals)), 2, roles)


def size_3sat_to_lambda2(phi: CnfFormula) -> dict[str, object]:
    """|V| = 2 + 2m + 4R + N, |E| = 1 + 2m + 6R + 2N and |S| = 2R + m, with
    R and N as in :func:`reduce_3sat_to_lambda2`."""
    clauses = [set(c) for c in phi.clauses]
    big_r = sum(
        max(sum(i in c for c in clauses), sum(-i in c for c in clauses), 1)
        for i in range(1, phi.num_vars + 1)
    )
    big_n = sum(len(c) for c in clauses)
    m = phi.num_clauses
    return {
        "V": 2 + 2 * m + 4 * big_r + big_n,
        "E": 1 + 2 * m + 6 * big_r + 2 * big_n,
        "S": 2 * big_r + m,
    }


def reduce_lambda2_to_lambdal(g: Graph, s: Iterable[int], l: int) -> ReductionOutput:
    """Lift a 2-tree decision to threshold l: each terminal v gets a proxy
    terminal v' tied to v by two parallel length-2 paths, and l-2 hub
    vertices adjacent to every proxy supply the extra trees.  Every proxy
    has degree exactly l in the output."""
    terminals = _check_terminals(g, s)
    if l < 3:
        raise GraphError(f"threshold l={l} must be at least 3")
    k = len(terminals)
    edges = list(g.edges)
    roles: dict[int, str] = {}
    proxies = []
    for idx, v in enumerate(terminals):
        base = g.n + 3 * idx
        proxy, mid1, mid2 = base, base + 1, base + 2
        proxies.append(proxy)
        roles[proxy] = f"v{v}p"
        roles[mid1] = f"v{v}m1"
        roles[mid2] = f"v{v}m2"
        edges.append((v, mid1))
        edges.append((proxy, mid1))
        edges.append((v, mid2))
        edges.append((proxy, mid2))
    for jj in range(l - 2):
        hub = g.n + 3 * k + jj
        roles[hub] = f"a{jj + 1}"
        for proxy in proxies:
            edges.append((proxy, hub))
    out = Graph(g.n + 3 * k + (l - 2), tuple(edges))
    return ReductionOutput(out, tuple(proxies), l, roles)


def size_lambda2_to_lambdal(g: Graph, s: Iterable[int], l: int) -> dict[str, object]:
    """Each of the k proxies has degree l."""
    k = len(set(s))
    return {"V": g.n + 3 * k + l - 2, "E": g.m + 4 * k + k * (l - 2), "degrees": (l,) * k}
