"""Exact solvers: generalized (edge-)connectivity, classical baselines,
and brute-force deciders for the three source problems.

The packing decision grows all l trees of a candidate packing at once in
one search, ``_search_trees``, for both kinds of packing.  Each tree is a
color.  Colors own *items* and share everything else, and a color's
subgraph is the shared part plus its own items:

- internally disjoint packings (kappa): the items are the non-terminal
  vertices and the terminal-terminal edges; the terminals and all other
  edges are shared;
- edge-disjoint packings (lambda): the items are the edges, and every
  vertex is shared.

A color is satisfied once its subgraph connects the terminals.  The search
repeatedly picks the first unsatisfied color and branches over which free
item attaches to its most constrained terminal component, trying items
closer to a missing terminal first; a tried item is banned from that color
in the remaining branches, which makes the enumeration exhaustive without
duplicates.  Prunes: every color still needs a private item at every
terminal (counting argument on the free items attachable there); every color
must still be able to connect the terminals through its own plus free
items; and, for edge-disjoint packings, merging c components of a color
takes at least c - 1 free edges.  Maxima are computed by raising l until
the decision fails.  Branch order is fixed, so values and witnesses are
deterministic.

Before any search, ``bounds.packing_upper_bound`` tries three polynomial
upper bounds on the packing number, cheapest first: the least terminal
degree, the nearest-terminal partition bound of Nash-Williams and Tutte,
and the least Menger edge cut from the first terminal.  A decision above
their least is answered no without searching, and a maximum never
searches above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import (
    CnfFormula,
    Graph,
    GraphError,
    SteinerTree,
    ThreeDMInstance,
    _reachable_mask,
    is_connected,
)
from .bounds import _edge_flow, _vertex_flow, packing_upper_bound
from .trees import _check_terminals, _mask_of

SUBSET_GUARD_MAX_N = 16  # kappa_k/lambda_k refuse larger graphs without force
SAT_GUARD_MAX_VARS = 24


class GuardError(RuntimeError):
    """Input exceeds the desk-scale guard; pass force=True to override."""


@dataclass(frozen=True)
class PackingResult:
    """Maximum packing size together with a witness realizing it."""

    value: int
    witness: tuple[SteinerTree, ...]


# ---------------------------------------------------------------------------
# Packing search


def _first_tree(g: Graph, terminals: Sequence[int], vmask: int, emask: int) -> tuple[int, int]:
    """One minimal S-tree of the active subgraph, assuming the terminals
    are connected within it: the union of BFS-tree paths from each
    terminal to the first one.  Every leaf of that union is a terminal.
    """
    inc = g.incident
    edges = g.edges
    root = terminals[0]
    parent: dict[int, tuple[int, int]] = {root: (-1, -1)}
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        e = inc[v] & emask
        while e:
            eb = e & -e
            e ^= eb
            j = eb.bit_length() - 1
            x, y = edges[j]
            w = y if x == v else x
            if w not in parent and (vmask >> w) & 1:
                parent[w] = (j, v)
                queue.append(w)
    tv = 1 << root
    te = 0
    for t in terminals:
        v = t
        while not (tv >> v) & 1:
            tv |= 1 << v
            j, p = parent[v]
            te |= 1 << j
            v = p
    return tv, te


def _dist_order(
    g: Graph, sources: int, through: int, emask: int, items: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Sort (id, key vertex) items by the BFS distance of their key vertex
    from ``sources``, walking ``emask`` edges into ``through`` vertices;
    items that cannot be reached sort last.  Ties break on id."""
    inc = g.incident
    edges = g.edges
    dist = {}
    frontier = []
    m = sources
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        dist[v] = 0
        frontier.append(v)
    d = 0
    seen = sources
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            e = inc[v] & emask
            while e:
                eb = e & -e
                e ^= eb
                x, y = edges[eb.bit_length() - 1]
                w = y if x == v else x
                wb = 1 << w
                if not (seen & wb) and (through & wb):
                    seen |= wb
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return sorted(items, key=lambda item: (dist.get(item[1], 1 << 30), item[0]))


def _search_trees(
    g: Graph,
    s_mask: int,
    terminals: Sequence[int],
    l: int,
    vertex_mode: bool,
    vmask: int,
    emask: int,
) -> list[tuple[int, int]] | None:
    """l pairwise internally disjoint (``vertex_mode``) or edge-disjoint
    minimal S-trees of the active subgraph (vmask, emask), or None.

    Colors own items and share the rest; a color's subgraph is the shared
    part plus its own items.  An item mask holds vertex x at bit x and edge
    j at bit ``off + j``; ``off`` is n in vertex mode and 0 in edge mode,
    where no vertex is an item and an item mask is an edge mask.
    """
    if l == 0:
        return []
    reached = _reachable_mask(g, 1 << terminals[0], vmask, emask)
    if s_mask & ~reached:
        return None
    if l == 1:
        return [_first_tree(g, terminals, vmask, emask)]
    inc = g.incident
    edges = g.edges
    t0 = terminals[0]
    if vertex_mode:
        # Items: the non-terminal vertices and the terminal-terminal edges.
        edge_items = 0
        e = emask
        while e:
            b = e & -e
            e ^= b
            u, v = edges[b.bit_length() - 1]
            if (s_mask >> u) & 1 and (s_mask >> v) & 1:
                edge_items |= b
        adjm = [0] * g.n
        for j, (u, v) in enumerate(edges):
            if (emask >> j) & 1 and (vmask >> u) & 1 and (vmask >> v) & 1:
                adjm[u] |= 1 << v
                adjm[v] |= 1 << u
        off = g.n
        vert_items = vmask & ~s_mask
        shared_v = s_mask
        attach = [
            (adjm[t] & vert_items) | ((inc[t] & edge_items) << off) for t in terminals
        ]
    else:
        # Items: the edges; every vertex is shared.
        edge_items = emask
        off = 0
        vert_items = 0
        shared_v = vmask
        attach = [inc[t] & emask for t in terminals]
    shared_e = emask & ~edge_items
    vbits = (1 << off) - 1

    color = [0] * l
    ban = [0] * l
    free = vert_items | (edge_items << off)

    def subgraph(items: int) -> tuple[int, int]:
        """(vertex mask, edge mask) of the shared part plus ``items``."""
        return shared_v | (items & vbits), shared_e | (items >> off)

    def terminal_components(i: int) -> list[int]:
        """Component masks of color i's subgraph, one per terminal group."""
        out = []
        cv, ce = subgraph(color[i])
        left = s_mask
        while left:
            reach = _reachable_mask(g, left & -left, cv, ce)
            out.append(reach)
            left &= ~reach
        return out

    def component_cands(i: int, k: int) -> list[tuple[int, int]]:
        """(item bit, key vertex) of the free, unbanned items attachable to
        component k for color i; an edge is keyed by its endpoint outside k."""
        out = []
        m = free & ~ban[i]
        vm = m & vbits
        while vm:
            b = vm & -vm
            vm ^= b
            x = b.bit_length() - 1
            if adjm[x] & k:
                out.append((x, x))
        em = m >> off
        while em:
            b = em & -em
            em ^= b
            j = b.bit_length() - 1
            u, v = edges[j]
            if ((k >> u) & 1) != ((k >> v) & 1):
                out.append((off + j, v if (k >> u) & 1 else u))
        return out

    def rec() -> list[tuple[int, int]] | None:
        nonlocal free
        # Branch on the first unsatisfied color, attaching to whichever of
        # its components has the fewest candidates (fail-first locally).
        target = -1
        target_k = 0
        best_cands: list[tuple[int, int]] | None = None
        needed = 0  # merging c components takes >= c-1 new edges
        for i in range(l):
            comps = terminal_components(i)
            if len(comps) == 1:
                continue
            needed += len(comps) - 1
            if target != -1:
                continue
            target = i
            for k in comps:
                cands = component_cands(i, k)
                if best_cands is None or len(cands) < len(best_cands):
                    target_k, best_cands = k, cands
                    if not cands:
                        return None
            if vertex_mode:
                break  # one vertex can merge many components
        if best_cands is None:
            return [_first_tree(g, terminals, *subgraph(c)) for c in color]
        if not vertex_mode and needed > free.bit_count():
            return None
        # Terminal capacity: every color still needs a private attachment.
        for at in attach:
            have = 0
            for c in color:
                if c & at:
                    have += 1
            if l - have > (at & free).bit_count():
                return None
        # Per-color reachability through own plus unassigned items.
        for i in range(l):
            reach = _reachable_mask(g, 1 << t0, *subgraph(color[i] | (free & ~ban[i])))
            if s_mask & ~reach:
                return None
        open_v, open_e = subgraph(free & ~ban[target])
        cands = _dist_order(
            g, s_mask & ~target_k, open_v & ~target_k, open_e, best_cands
        )
        # Bans are scoped to this node: branch r excludes the items tried
        # by branches 1..r-1, and the whole set is restored on failure.
        saved = ban[target]
        for x, _key in cands:
            b = 1 << x
            color[target] |= b
            free ^= b
            res = rec()
            free |= b
            color[target] ^= b
            if res is not None:
                return res
            ban[target] |= b
        ban[target] = saved
        return None

    return rec()


def _packing_max(g: Graph, s: Iterable[int], vertex_mode: bool) -> PackingResult:
    terminals = _check_terminals(g, s)
    s_mask = _mask_of(terminals)
    vmask = g.all_vertices_mask
    emask = g.all_edges_mask
    reached = _reachable_mask(g, 1 << terminals[0], vmask, emask)
    if s_mask & ~reached:
        return PackingResult(0, ())
    witness = [_first_tree(g, terminals, vmask, emask)]
    ub = packing_upper_bound(g, terminals)
    l = 2
    while l <= ub:
        found = _search_trees(g, s_mask, terminals, l, vertex_mode, vmask, emask)
        if found is None:
            break
        witness = found
        l += 1
    return PackingResult(
        len(witness), tuple(SteinerTree.from_masks(g, tv, te) for tv, te in witness)
    )


def _packing_decide(g: Graph, s: Iterable[int], l: int, vertex_mode: bool) -> bool:
    if l < 0:
        raise GraphError(f"negative threshold {l}")
    terminals = _check_terminals(g, s)
    if l == 0:
        return True
    if packing_upper_bound(g, terminals, l) < l:
        return False
    s_mask = _mask_of(terminals)
    found = _search_trees(
        g, s_mask, terminals, l, vertex_mode, g.all_vertices_mask, g.all_edges_mask
    )
    return found is not None


def kappa_set(g: Graph, s: Iterable[int]) -> PackingResult:
    """Maximum number of pairwise internally disjoint S-trees, with witness.
    Zero when the terminals do not lie in one component."""
    return _packing_max(g, s, vertex_mode=True)


def lambda_set(g: Graph, s: Iterable[int]) -> PackingResult:
    """Maximum number of pairwise edge-disjoint S-trees, with witness."""
    return _packing_max(g, s, vertex_mode=False)


def decide_kappa_set(g: Graph, s: Iterable[int], l: int) -> bool:
    """True iff there are at least l pairwise internally disjoint S-trees;
    stops at the first witness rather than maximizing."""
    return _packing_decide(g, s, l, vertex_mode=True)


def decide_lambda_set(g: Graph, s: Iterable[int], l: int) -> bool:
    """True iff there are at least l pairwise edge-disjoint S-trees."""
    return _packing_decide(g, s, l, vertex_mode=False)


def _subset_min(g: Graph, k: int, fn, force: bool) -> int:
    if not (2 <= k <= g.n):
        raise GraphError(f"k={k} out of range 2..{g.n}")
    if g.n > SUBSET_GUARD_MAX_N and not force:
        raise GuardError(
            f"n={g.n} exceeds the subset-minimum guard ({SUBSET_GUARD_MAX_N}); "
            "pass force=True to override"
        )
    if not is_connected(g):
        return 0
    best = None
    for s in combinations(range(g.n), k):
        val = fn(g, s).value
        if best is None or val < best:
            best = val
            if best <= 1:
                break  # connected graphs never go below 1
    return best if best is not None else 0


def kappa_k(g: Graph, k: int, force: bool = False) -> int:
    """min over all k-subsets S of kappa_set(g, S); 0 when g is disconnected."""
    return _subset_min(g, k, kappa_set, force)


def lambda_k(g: Graph, k: int, force: bool = False) -> int:
    """min over all k-subsets S of lambda_set(g, S); 0 when g is disconnected."""
    return _subset_min(g, k, lambda_set, force)


# ---------------------------------------------------------------------------
# Classical connectivity baselines (unit-capacity max-flow)


def classical_kappa(g: Graph) -> int:
    """Vertex connectivity via Menger flows over all nonadjacent pairs;
    the complete graph K_n returns n - 1."""
    if g.n < 2:
        raise GraphError(f"connectivity undefined for n={g.n}")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    best = g.n - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                best = min(best, _vertex_flow(g, u, v))
                if best == 0:
                    return 0
    return best


def classical_lambda(g: Graph) -> int:
    """Edge connectivity via unit-capacity flows from a fixed source."""
    if g.n < 2:
        raise GraphError(f"edge connectivity undefined for n={g.n}")
    best = None
    for t in range(1, g.n):
        f = _edge_flow(g, 0, t)
        if best is None or f < best:
            best = f
            if best == 0:
                return 0
    return best


# ---------------------------------------------------------------------------
# Source-problem deciders (reduction oracles)


def _exact_cover(universe: int, rows: Sequence[int]) -> tuple[int, ...] | None:
    """Indices of rows exactly covering the universe bitmask, or None.
    Branches on the uncovered item with the fewest covering rows."""

    def rec(remaining: int, avail: list[int]) -> tuple[int, ...] | None:
        if remaining == 0:
            return ()
        best_item = -1
        best_rows: list[int] = []
        r = remaining
        while r:
            b = r & -r
            r ^= b
            covering = [i for i in avail if rows[i] & b]
            if best_item == -1 or len(covering) < len(best_rows):
                best_item = b
                best_rows = covering
                if not covering:
                    return None
        for i in best_rows:
            row = rows[i]
            sub = rec(remaining & ~row, [a for a in avail if not (rows[a] & row)])
            if sub is not None:
                return (i,) + sub
        return None

    return rec(universe, list(range(len(rows))))


def decide_3dm(inst: ThreeDMInstance) -> bool:
    """True iff a perfect three-dimensional matching exists (exact cover of
    the three ground sets by the given triples)."""
    n = inst.n
    universe = (1 << (3 * n)) - 1
    rows = [(1 << u) | (1 << (n + v)) | (1 << (2 * n + w)) for u, v, w in inst.triples]
    return _exact_cover(universe, rows) is not None


def rainbow_connected_triples(g: Graph) -> list[tuple[int, int, int]]:
    """All vertex triples with one vertex per part inducing a connected
    subgraph (i.e. carrying at least two of the three possible edges)."""
    pu, pv, pw = g.parts()
    adj = g.adjacency
    out = []
    for u in pu:
        au = adj[u]
        for v in pv:
            uv = (au >> v) & 1
            av = adj[v]
            for w in pw:
                if uv + ((au >> w) & 1) + ((av >> w) & 1) >= 2:
                    out.append((u, v, w))
    return out


def _check_balanced_tripartition(g: Graph) -> int:
    parts = g.parts()
    q = len(parts[0])
    if any(len(p) != q for p in parts):
        raise GraphError(
            f"parts have sizes {tuple(len(p) for p in parts)}, expected equal"
        )
    return q


def solve_problem1(g: Graph) -> tuple[tuple[int, int, int], ...] | None:
    """A partition of the vertices into connected rainbow triples, or None.
    Implemented as exact cover over all connected rainbow triples."""
    _check_balanced_tripartition(g)
    triples = rainbow_connected_triples(g)
    rows = [(1 << u) | (1 << v) | (1 << w) for u, v, w in triples]
    chosen = _exact_cover(g.all_vertices_mask, rows)
    if chosen is None:
        return None
    return tuple(triples[i] for i in chosen)


def decide_problem1(g: Graph) -> bool:
    """True iff the balanced tripartite graph partitions into connected
    rainbow triples."""
    return solve_problem1(g) is not None


def decide_3sat(phi: CnfFormula, force: bool = False) -> bool:
    """Exhaustive satisfiability check; guarded at 24 variables."""
    if phi.num_vars > SAT_GUARD_MAX_VARS and not force:
        raise GuardError(
            f"{phi.num_vars} variables exceed the exhaustive-search guard "
            f"({SAT_GUARD_MAX_VARS})"
        )
    pos = []
    neg = []
    for c in phi.clauses:
        p = 0
        q = 0
        for lit in c:
            if lit > 0:
                p |= 1 << (lit - 1)
            else:
                q |= 1 << (-lit - 1)
        pos.append(p)
        neg.append(q)
    full = (1 << phi.num_vars) - 1
    for assign in range(1 << phi.num_vars):
        inv = assign ^ full
        if all(assign & p or inv & q for p, q in zip(pos, neg)):
            return True
    return False
