"""Polynomial upper bounds on packing numbers, and the unit-capacity
max-flow behind them and behind the classical connectivities.

``packing_upper_bound`` gives the packing search its refutations without
search: a threshold above the bound has no packing, so the solver answers
no at once and never searches for a maximum above it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph

# Arc heads, arc capacities, and the arcs leaving each node.
Network = tuple[list[int], list[int], list[list[int]]]


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
    """⌊cross edges / (|S| - 1)⌋ on the partition that gives every vertex
    to its nearest terminal (breadth-first from all terminals at once, ties
    to the terminal that reaches it first).  Each S-tree joins the |S|
    parts, so it holds at least |S| - 1 cross edges.  Vertices that no
    terminal reaches stay out of every part; no edge joins them to one."""
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
    return cross // (len(terminals) - 1)


def packing_upper_bound(
    g: Graph, terminals: Sequence[int], limit: int | None = None
) -> int:
    """An upper bound on the number of pairwise edge-disjoint S-trees of g
    for the terminal tuple ``terminals`` (|S| >= 2), the least of:

    - the least terminal degree, as each tree has its own edge at every
      terminal;
    - for |S| >= 3, the partition bound of ``_partition_bound``
      (Nash-Williams 1961; Tutte 1961);
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
    network = _edge_network(g)
    for t in terminals[1:]:
        bound = min(bound, _max_flow(network, terminals[0], t, bound))
        if bound < stop:
            return bound
    return bound
