"""Exact solvers: generalized (edge-)connectivity, classical baselines,
and brute-force deciders for the three source problems.

The packing decision grows all l trees of a candidate packing at once.
Each tree is a color; a color owns a set of non-terminal vertices (for
internally disjoint packings) or a set of edges (for edge-disjoint
packings), and is satisfied once the terminals are connected through what
it owns.  The search repeatedly picks the first unsatisfied color and
branches over which unassigned item attaches to its most constrained
terminal component, trying items closer to a missing terminal first; a
tried item is banned from that color in the remaining branches, which
makes the enumeration exhaustive without duplicates.  Two prunes do the
heavy lifting: every color still needs a private attachment at every
terminal (counting argument on the terminal's unassigned neighborhood),
and every color must still be able to connect the terminals through its
own plus unassigned items.  Maxima are computed by raising l until the
decision fails.  Branch order is fixed, so values and witnesses are
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
    """Sort (id, key_vertex_mask) items by BFS distance of their key
    vertices from ``sources``, expanding only ``through`` vertices; items
    that cannot be reached sort last.  Ties break on id."""
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

    def key(item: tuple[int, int]) -> tuple[int, int]:
        best = 1 << 30
        m = item[1]
        while m:
            b = m & -m
            m ^= b
            best = min(best, dist.get(b.bit_length() - 1, 1 << 30))
        return (best, item[0])

    return sorted(items, key=key)


def _search_kappa(
    g: Graph,
    s_mask: int,
    terminals: Sequence[int],
    l: int,
    vmask: int,
    emask: int,
) -> list[tuple[int, int]] | None:
    """l pairwise internally disjoint S-trees of the active subgraph.

    Colors own non-terminal vertices plus terminal-terminal edges; a
    color's subgraph is the one induced on the terminals and its vertices,
    restricted to terminal-terminal edges it owns.
    """
    inc = g.incident
    edges = g.edges
    t0 = terminals[0]

    ss_all = 0  # terminal-terminal edges are assignable items of their own
    e = emask
    while e:
        b = e & -e
        e ^= b
        j = b.bit_length() - 1
        u, v = edges[j]
        if (s_mask >> u) & 1 and (s_mask >> v) & 1:
            ss_all |= b
    # Per-vertex adjacency and incidence restricted to the active subgraph.
    adjm = [0] * g.n
    for j, (u, v) in enumerate(g.edges):
        if (emask >> j) & 1 and (vmask >> u) & 1 and (vmask >> v) & 1:
            adjm[u] |= 1 << v
            adjm[v] |= 1 << u

    color_v = [0] * l
    color_ss = [0] * l
    ban_v = [0] * l
    ban_ss = [0] * l
    free = [vmask & ~s_mask, ss_all]  # unassigned vertices, unassigned S-S edges
    non_ss = emask & ~ss_all

    def terminal_components(i: int) -> list[int]:
        """Component masks of color i's subgraph, one per terminal group."""
        out = []
        left = s_mask
        while left:
            b = left & -left
            reach = _reachable_mask(g, b, s_mask | color_v[i], non_ss | color_ss[i])
            out.append(reach)
            left &= ~reach
        return out

    def component_cands(i: int, k: int) -> list[tuple[int, int]]:
        """(encoded id, key vertex mask) of items attachable to component k
        for color i; vertices encode as 2x, terminal-terminal edges 2j+1."""
        out = []
        vm = free[0] & ~ban_v[i]
        while vm:
            b = vm & -vm
            vm ^= b
            x = b.bit_length() - 1
            if adjm[x] & k:
                out.append((2 * x, b))
        sm = free[1] & ~ban_ss[i]
        while sm:
            b = sm & -sm
            sm ^= b
            j = b.bit_length() - 1
            u, v = edges[j]
            if ((k >> u) & 1) != ((k >> v) & 1):
                out.append((2 * j + 1, (1 << u) | (1 << v)))
        return out

    def rec() -> list[tuple[int, int]] | None:
        # Branch on the first unsatisfied color, attaching to whichever of
        # its components has the fewest candidates (fail-first locally).
        target = -1
        target_k = 0
        best_cands: list[tuple[int, int]] | None = None
        for i in range(l):
            comps = terminal_components(i)
            if len(comps) == 1:
                continue
            target = i
            for k in comps:
                cands = component_cands(i, k)
                if best_cands is None or len(cands) < len(best_cands):
                    target_k, best_cands = k, cands
                    if not cands:
                        return None
            break
        if target == -1:
            return [
                _first_tree(g, terminals, s_mask | color_v[i], non_ss | color_ss[i])
                for i in range(l)
            ]
        assert best_cands is not None
        # Terminal capacity: every color still needs a private attachment.
        for t in terminals:
            have = 0
            at = adjm[t]
            it = inc[t] & ss_all
            for i in range(l):
                if color_v[i] & at or color_ss[i] & it:
                    have += 1
            if l - have > (at & free[0]).bit_count() + (it & free[1]).bit_count():
                return None
        # Per-color reachability through own plus unassigned items.
        for i in range(l):
            reach = _reachable_mask(
                g,
                1 << t0,
                s_mask | color_v[i] | (free[0] & ~ban_v[i]),
                non_ss | color_ss[i] | (free[1] & ~ban_ss[i]),
            )
            if s_mask & ~reach:
                return None
        cands = _dist_order(
            g,
            s_mask & ~target_k,
            (free[0] & ~ban_v[target]) | (s_mask & ~target_k),
            emask,
            best_cands,
        )
        # Bans are scoped to this node: branch r excludes the items tried
        # by branches 1..r-1, and the whole set is restored on failure.
        saved_v = ban_v[target]
        saved_ss = ban_ss[target]
        for enc, _key in cands:
            if enc & 1:
                j = enc >> 1
                color_ss[target] |= 1 << j
                free[1] ^= 1 << j
                res = rec()
                free[1] |= 1 << j
                color_ss[target] ^= 1 << j
                if res is not None:
                    return res
                ban_ss[target] |= 1 << j
            else:
                x = enc >> 1
                color_v[target] |= 1 << x
                free[0] ^= 1 << x
                res = rec()
                free[0] |= 1 << x
                color_v[target] ^= 1 << x
                if res is not None:
                    return res
                ban_v[target] |= 1 << x
        ban_v[target] = saved_v
        ban_ss[target] = saved_ss
        return None

    return rec()


def _search_lambda(
    g: Graph,
    s_mask: int,
    terminals: Sequence[int],
    l: int,
    vmask: int,
    emask: int,
) -> list[tuple[int, int]] | None:
    """l pairwise edge-disjoint S-trees of the active subgraph.  Colors own
    edges; vertices are shared freely."""
    inc = g.incident
    edges = g.edges
    t0 = terminals[0]

    color_e = [0] * l
    ban_e = [0] * l
    free = [emask]

    def terminal_components(i: int) -> list[int]:
        """Component masks of (V, E_i), one per terminal group."""
        out = []
        left = s_mask
        while left:
            b = left & -left
            reach = _reachable_mask(g, b, vmask, color_e[i])
            out.append(reach)
            left &= ~reach
        return out

    def component_cands(i: int, k: int) -> list[tuple[int, int]]:
        """(edge id, outside endpoint mask) of edges attachable to k."""
        out = []
        em = free[0] & ~ban_e[i]
        while em:
            b = em & -em
            em ^= b
            j = b.bit_length() - 1
            u, v = edges[j]
            if ((k >> u) & 1) != ((k >> v) & 1):
                out.append((j, 1 << (v if (k >> u) & 1 else u)))
        return out

    def rec() -> list[tuple[int, int]] | None:
        # Branch on the first unsatisfied color's most constrained component.
        target = -1
        target_k = 0
        best_cands: list[tuple[int, int]] | None = None
        needed = 0  # merging c terminal components takes >= c-1 new edges
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
        if best_cands is None:
            return [
                _first_tree(g, terminals, vmask, color_e[i]) for i in range(l)
            ]
        if needed > free[0].bit_count():
            return None
        for t in terminals:
            it = inc[t] & emask
            have = 0
            for i in range(l):
                if color_e[i] & it:
                    have += 1
            if l - have > (it & free[0]).bit_count():
                return None
        for i in range(l):
            reach = _reachable_mask(
                g, 1 << t0, vmask, color_e[i] | (free[0] & ~ban_e[i])
            )
            if s_mask & ~reach:
                return None
        cands = _dist_order(
            g, s_mask & ~target_k, vmask & ~target_k, free[0] & ~ban_e[target],
            best_cands,
        )
        saved = ban_e[target]
        for j, _key in cands:
            color_e[target] |= 1 << j
            free[0] ^= 1 << j
            res = rec()
            free[0] |= 1 << j
            color_e[target] ^= 1 << j
            if res is not None:
                return res
            ban_e[target] |= 1 << j
        ban_e[target] = saved
        return None

    return rec()


def _search_packing(
    g: Graph,
    s_mask: int,
    terminals: Sequence[int],
    l: int,
    vertex_mode: bool,
    vmask: int,
    emask: int,
) -> list[tuple[int, int]] | None:
    """l pairwise-disjoint minimal S-trees of the active subgraph, or None."""
    if l == 0:
        return []
    reached = _reachable_mask(g, 1 << terminals[0], vmask, emask)
    if s_mask & ~reached:
        return None
    if l == 1:
        return [_first_tree(g, terminals, vmask, emask)]
    if vertex_mode:
        return _search_kappa(g, s_mask, terminals, l, vmask, emask)
    return _search_lambda(g, s_mask, terminals, l, vmask, emask)


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
        found = _search_packing(g, s_mask, terminals, l, vertex_mode, vmask, emask)
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
    found = _search_packing(
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
