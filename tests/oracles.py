"""Independent brute-force oracles used to cross-check the solvers.

Deliberately naive and structure-free: trees come from scanning all edge
subsets, packings from searching all subsets of those trees.  Nothing
here shares search logic with the package's solver.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from genconn.graphs import Graph, ThreeDMInstance


def all_stein_trees(g: Graph, s: tuple[int, ...]) -> list[tuple[frozenset, frozenset]]:
    """Every S-tree of g (not only minimal ones) as (vertices, edges),
    found by scanning all edge subsets."""
    out = []
    sset = set(s)
    for size in range(1, g.n):
        for edges in combinations(g.edges, size):
            vs = set()
            for u, v in edges:
                vs.add(u)
                vs.add(v)
            if len(vs) != size + 1 or not sset <= vs:
                continue
            if _spans_connected(edges, vs):
                out.append((frozenset(vs), frozenset(edges)))
    return out


def _spans_connected(edges, vs) -> bool:
    vs = set(vs)
    start = next(iter(vs))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            if a == v and b not in seen:
                seen.add(b)
                frontier.append(b)
            elif b == v and a not in seen:
                seen.add(a)
                frontier.append(a)
    return seen == vs


def distances(g: Graph, sources, vset, emask: int) -> dict[int, int]:
    """Breadth-first distance from the nearest of ``sources`` to each
    vertex it reaches inside the vertex set ``vset``, walking only the
    edges of g whose ids are set in ``emask``."""
    vset = set(vset)
    allowed = [e for j, e in enumerate(g.edges) if (emask >> j) & 1]
    dist = {v: 0 for v in sources if v in vset}
    frontier = list(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for a, b in allowed:
                w = b if a == v else a if b == v else None
                if w is not None and w in vset and w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def reachable(g: Graph, start: int, vset, emask: int) -> set[int]:
    """The vertices of ``vset`` reachable from ``start`` (empty unless
    ``start`` is in ``vset``) along the edges set in ``emask``."""
    return set(distances(g, (start,), vset, emask))


def is_edge_packing(g: Graph, s: tuple[int, ...], trees) -> bool:
    """True iff every member of ``trees``, an edge list, is an S-tree of g
    (graph edges only, spanning S, connected and acyclic) and no two
    members share an edge."""
    host = set(g.edges)
    used: set = set()
    for edges in trees:
        es = {(min(u, v), max(u, v)) for u, v in edges}
        vs = {x for e in es for x in e}
        if (
            len(es) != len(edges)
            or not es <= host
            or es & used
            or not set(s) <= vs
            or len(es) != len(vs) - 1
            or not _spans_connected(es, vs)
        ):
            return False
        used |= es
    return True


def menger_count(g: Graph, s: int, t: int, mode: str) -> int:
    """The most pairwise edge-disjoint ('edge') or internally disjoint
    ('vertex') s-t paths, by augmenting paths on a dict of residual
    capacities.  Each edge is two arcs of capacity 1, each the other's
    reverse in edge mode; in vertex mode every vertex but s and t is split
    into ('in', v) -> ('out', v) of capacity 1, and an edge st is one
    path."""

    def node(v, side):
        return v if mode == "edge" or v in (s, t) else (side, v)

    cap: dict = {}

    def arc(a, b) -> None:
        cap.setdefault(a, {})
        cap.setdefault(b, {})
        cap[a][b] = cap[a].get(b, 0) + 1
        cap[b].setdefault(a, 0)

    if mode == "vertex":
        for v in range(g.n):
            if v not in (s, t):
                arc(("in", v), ("out", v))
    for u, v in g.edges:
        arc(node(u, "out"), node(v, "in"))
        arc(node(v, "out"), node(u, "in"))
    count = 0
    while True:
        parent = {s: None}
        stack = [s]
        while stack and t not in parent:
            a = stack.pop()
            for b, c in cap.get(a, {}).items():
                if c and b not in parent:
                    parent[b] = a
                    stack.append(b)
        if t not in parent:
            return count
        b = t
        while parent[b] is not None:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        count += 1


def minimal_stein_trees(g: Graph, s: tuple[int, ...]) -> list[tuple[frozenset, frozenset]]:
    """The S-trees every leaf of which is a terminal."""
    out = []
    for vs, es in all_stein_trees(g, s):
        deg = {v: 0 for v in vs}
        for u, v in es:
            deg[u] += 1
            deg[v] += 1
        if all(d != 1 or v in s for v, d in deg.items()):
            out.append((vs, es))
    return out


def prune_to_minimal(tree: tuple[frozenset, frozenset], s: tuple[int, ...]
                     ) -> tuple[frozenset, frozenset]:
    """Iteratively delete non-terminal leaves."""
    vs, es = set(tree[0]), set(tree[1])
    sset = set(s)
    while True:
        deg: dict[int, list] = {v: [] for v in vs}
        for e in es:
            deg[e[0]].append(e)
            deg[e[1]].append(e)
        leaves = [v for v in vs if len(deg[v]) == 1 and v not in sset]
        if not leaves:
            return frozenset(vs), frozenset(es)
        for v in leaves:
            vs.remove(v)
            es.discard(deg[v][0])


def matching_by_permutations(inst: ThreeDMInstance) -> bool:
    """Perfect three-dimensional matching decision by scanning all pairs of
    permutations sigma, tau of the ground set: a matching is exactly such a
    pair with every (i, sigma(i), tau(i)) a given triple (feasible for
    n <= 4)."""
    from itertools import permutations

    triples = set(inst.triples)
    ground = range(inst.n)
    return any(
        all((i, sigma[i], tau[i]) in triples for i in ground)
        for sigma in permutations(ground)
        for tau in permutations(ground)
    )


def problem1_by_permutations(g: Graph) -> bool:
    """Rainbow connected partition decision by scanning all ways to match
    the three parts (feasible for part size <= 4)."""
    from itertools import permutations

    pu, pv, pw = g.parts()
    for perm_v in permutations(pv):
        for perm_w in permutations(pw):
            if all(
                _spans_connected(
                    [e for e in g.edges if set(e) <= {u, x, y}], {u, x, y}
                )
                for u, x, y in zip(pu, perm_v, perm_w)
            ):
                return True
    return False


def max_packing(g: Graph, s: tuple[int, ...], mode: str, trees=None) -> int:
    """Maximum pairwise-compatible subset of all S-trees; mode is
    'vertex' (internally disjoint) or 'edge' (edge-disjoint).  Two trees
    are compatible when they share no edge and, in vertex mode, no
    non-terminal vertex.  Each tree's compatible trees are one bitmask
    over the tree list: all trees less those that hold one of its items.
    ``trees`` is ``all_stein_trees(g, s)``, enumerated here when omitted;
    a caller asking for both modes can enumerate once and pass it.

    Every S-tree holds an edge at each terminal, and compatible trees
    share no edge, so no packing is larger than the least terminal
    degree: the search stops once it has one that large."""
    if trees is None:
        trees = all_stein_trees(g, s)
    sset = frozenset(s)

    items = [es | (vs - sset) if mode == "vertex" else es for vs, es in trees]
    holders: dict = {}
    for i, held in enumerate(items):
        for item in held:
            holders[item] = holders.get(item, 0) | 1 << i
    everything = (1 << len(trees)) - 1
    compatible = []
    for held in items:
        clash = 0
        for item in held:
            clash |= holders[item]
        compatible.append(everything & ~clash)

    best = 0
    cap = min((g.degree(t) for t in s), default=len(trees))

    def extend(chosen_count: int, candidates: int) -> None:
        nonlocal best
        best = max(best, chosen_count)
        if chosen_count + candidates.bit_count() <= best:
            return
        while candidates and best < cap:
            low = candidates & -candidates
            candidates ^= low
            extend(chosen_count + 1, candidates & compatible[low.bit_length() - 1])

    extend(0, everything)
    return best


def partition_bound_reference(g: Graph, terminals: Sequence[int], stop: int = 0) -> int:
    """The edge-scan form of ``bounds._partition_bound``, against which
    the mask form is checked.

    ⌊cross edges / (|S| - 1)⌋ on a partition of V into |S| parts, one
    per terminal.  Each S-tree joins the parts, so it holds at least
    |S| - 1 cross edges.  The partition starts by giving every vertex to
    its nearest terminal (breadth-first from all terminals at once, ties
    to the terminal that reaches it first); vertices that no terminal
    reaches stay out of every part, and no edge joins them to one.  A
    local search then moves each non-terminal in turn to the part that
    holds most of its neighbours while that cuts fewer edges, until no
    move does.  Terminals never move, so every part keeps its terminal
    and each partition passed is one the bound holds for.  The value is
    returned as soon as it falls below ``stop``, before or during the
    local search; with the default of 0 the local search runs to its
    end."""
    owner = [-1] * g.n
    for t in terminals:
        owner[t] = t
    queue = list(terminals)
    head = 0
    adj = g.adjacency
    while head < len(queue):
        v = queue[head]
        head += 1
        nb = adj[v]
        while nb:
            b = nb & -nb
            nb ^= b
            w = b.bit_length() - 1
            if owner[w] < 0:
                owner[w] = owner[v]
                queue.append(w)
    parts = len(terminals) - 1
    cross = sum(1 for u, v in g.edges if owner[u] != owner[v])
    # the value is below stop exactly when cross is below this
    low = stop * parts
    if cross < low:
        return cross // parts
    part = dict.fromkeys(terminals, 0)
    for v in queue:
        part[owner[v]] |= 1 << v
    movable = queue[len(terminals):]  # the non-terminals reached
    moved = True
    while moved:
        moved = False
        for v in movable:
            nb = adj[v]
            here = best = owner[v]
            stay = (nb & part[here]).bit_count()
            gain = 0
            for t, mask in part.items():
                d = (nb & mask).bit_count() - stay
                if d > gain:
                    best, gain = t, d
            if gain:
                part[here] ^= 1 << v
                part[best] |= 1 << v
                owner[v] = best
                cross -= gain
                if cross < low:
                    return cross // parts
                moved = True
    return cross // parts
