"""Polynomial upper bounds on packing numbers, and the unit-capacity
max-flow behind them and behind the classical connectivities.

``packing_upper_bound`` gives the packing search its refutations without
search: a threshold above the bound has no packing, so the solver answers
no at once and never searches for a maximum above it.  It is the least
of four bounds: the least terminal degree, the partition bound of
Nash-Williams and Tutte on the nearest-terminal partition after a local
search (``_partition_bound``) and on the terminal stars
(``_star_bound``), and the least Menger edge cut from the first
terminal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph
from .trees import _mask_of

# Arc heads, arc capacities, and the arcs leaving each node.
Network = tuple[list[int], list[int], list[list[int]]]

STAR_ALL_MAX = 10  # terminal stars are tried only up to this many terminals


def _flow_network(num_nodes: int, arcs: Iterable[tuple[int, int, int, int]]) -> Network:
    """Residual network of arcs (u, v, capacity, reverse capacity): the
    head and capacity of each arc slot, and the slots leaving each node.
    Slot a ^ 1 is the reverse of slot a."""
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v, c, r in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(r)
    return to, cap, adj


def _max_flow(network: Network, s: int, t: int, limit: int | None = None) -> int:
    """Edmonds-Karp on a residual network from ``_flow_network``, which
    it leaves unchanged.  With ``limit`` set, augmenting stops once the
    flow reaches it, so the result is the flow value only when it is
    below ``limit``."""
    to, cap, adj = network
    cap = list(cap)
    num_nodes = len(adj)
    flow = 0
    while limit is None or flow < limit:
        prev_arc = [-1] * num_nodes
        prev_arc[s] = -2
        queue = [s]
        head = 0
        while head < len(queue) and prev_arc[t] == -1:
            u = queue[head]
            head += 1
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and prev_arc[v] == -1:
                    prev_arc[v] = a
                    queue.append(v)
        if prev_arc[t] == -1:
            return flow
        bottleneck = 1 << 60
        v = t
        while v != s:
            a = prev_arc[v]
            bottleneck = min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = t
        while v != s:
            a = prev_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        flow += bottleneck
    return flow


def _vertex_flow(g: Graph, s: int, t: int) -> int:
    """Maximum internally disjoint s-t paths: vertex-split unit-cap flow."""
    big = g.n
    arcs = []
    for v in range(g.n):
        arcs.append((2 * v, 2 * v + 1, big if v in (s, t) else 1, 0))
    for u, v in g.edges:
        arcs.append((2 * u + 1, 2 * v, 1, 0))
        arcs.append((2 * v + 1, 2 * u, 1, 0))
    return _max_flow(_flow_network(2 * g.n, arcs), 2 * s + 1, 2 * t)


def _edge_network(g: Graph) -> Network:
    """Unit-capacity network of g: each edge is a pair of opposite arcs,
    each the other's reverse."""
    return _flow_network(g.n, ((u, v, 1, 1) for u, v in g.edges))


def _partition_bound(g: Graph, terminals: Sequence[int]) -> int:
    """⌊cross edges / (|S| - 1)⌋ on a partition of V into |S| parts, one
    per terminal.  Each S-tree joins the parts, so it holds at least
    |S| - 1 cross edges.  The partition starts by giving every vertex to
    its nearest terminal (breadth-first from all terminals at once, ties
    to the terminal that reaches it first); vertices that no terminal
    reaches stay out of every part, and no edge joins them to one.  A
    local search then moves each non-terminal in turn to the part that
    holds most of its neighbours while that cuts fewer edges, until no
    move does.  Terminals never move, so every part keeps its terminal
    and each partition passed is one the bound holds for."""
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
    cross = sum(1 for u, v in g.edges if owner[u] != owner[v])
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
                moved = True
    return cross // (len(terminals) - 1)


def _star_bound(g: Graph, terminals: Sequence[int], bound: int) -> int:
    """The least of ``bound``, which must be at most the least terminal
    degree, and ⌊edges touching T / |T|⌋ over sets T of 2 to |S| - 1
    terminals.  The parts {t} for t in T and the rest, which holds a
    terminal, partition V; each S-tree joins the |T| + 1 parts, so it
    holds at least |T| edges touching T.

    Only terminals with a terminal neighbour can take a star below the
    least degree: a terminal without one adds its whole degree to the
    count, so adding it to T never brings the quotient below both the
    rest of T's and the least degree.  So T ranges over every set of those
    terminals, and over none when there are more than ``STAR_ALL_MAX``."""
    inc = g.incident
    adj = g.adjacency
    s_mask = _mask_of(terminals)
    near = [t for t in terminals if adj[t] & s_mask]
    if len(near) > STAR_ALL_MAX:
        return bound
    # touch[i]: the edges touching the terminals of the bits of i
    touch = [0]
    for t in near:
        touch += [m | inc[t] for m in touch]
    top = len(touch) - 1 if len(near) == len(terminals) else len(touch)
    for i in range(3, top):
        c = i.bit_count()
        if c > 1:
            bound = min(bound, touch[i].bit_count() // c)
    return bound


def packing_upper_bound(
    g: Graph, terminals: Sequence[int], limit: int | None = None
) -> int:
    """An upper bound on the number of pairwise edge-disjoint S-trees of g
    for the terminal tuple ``terminals`` (|S| >= 2), the least of:

    - the least terminal degree, as each tree has its own edge at every
      terminal;
    - for |S| >= 3, the partition bound of ``_partition_bound``
      (Nash-Williams 1961; Tutte 1961) on the nearest-terminal partition
      after a local search, then on the terminal stars of ``_star_bound``;
    - the least edge cut between ``terminals[0]`` and each other terminal
      (Menger), as each tree holds a path between the two.

    Internally disjoint S-trees are edge-disjoint as well, so the bound
    holds for kappa(S) as well as for lambda(S).

    The bounds are tried in the order above, cheapest first, and each
    flow stops augmenting at the running bound.  A bound below 2 is
    returned at once: 0 and 1 differ only in whether the terminals are
    connected, which the search checks first.  With ``limit`` set, the
    result is at most ``limit`` and is returned as soon as a bound falls
    below it, so it is below ``limit`` only when no packing of ``limit``
    trees exists.
    """
    bound = min(g.incident[t].bit_count() for t in terminals)
    if limit is not None:
        bound = min(bound, limit)
    stop = 2 if limit is None else max(limit, 2)
    if bound < stop:
        return bound
    if len(terminals) >= 3:
        bound = min(bound, _partition_bound(g, terminals))
        if bound < stop:
            return bound
        bound = _star_bound(g, terminals, bound)
        if bound < stop:
            return bound
    network = _edge_network(g)
    for t in terminals[1:]:
        bound = min(bound, _max_flow(network, terminals[0], t, bound))
        if bound < stop:
            return bound
    return bound
