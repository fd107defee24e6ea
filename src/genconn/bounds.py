"""Polynomial upper bounds on packing numbers, and the unit-capacity
max-flow behind them, behind the two-terminal packings and behind the
classical connectivities.

The bounds give the solver its refutations without search: a threshold
above a bound has no packing.  The solver takes them in two steps, with
its greedy peel between them.  ``packing_upper_bound`` comes first: the
least terminal degree, the partition bound of Nash-Williams and Tutte on
the nearest-terminal partition after a local search
(``_partition_bound``), and on the terminal stars (``_star_bound``),
each stopping once the bound falls below the threshold.  ``cut_bound``,
the least Menger edge cut from the first terminal, comes after the peel.

``_menger_flow`` is that cut's flow: edge-disjoint s-t paths on the
adjacency masks of the graph, or internally disjoint ones, counted by the
same augmenting loop on the masks of a graph with every vertex split in
two.  With two terminals it is exact in both modes (Menger), so the
solver answers every two-terminal question with it and takes the flow's
paths, from ``_flow_paths``, as the witness.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph
from .trees import _mask_of

STAR_ALL_MAX = 10  # terminal stars are tried only up to this many terminals


def _menger_flow(
    adj: Sequence[int], s: int, t: int, vertex_mode: bool, limit: int | None = None
) -> tuple[int, list[int]]:
    """A maximum unit-capacity s-t flow in the graph of the adjacency
    masks ``adj``: its value and, for each vertex u, the mask of the w
    that u sends a unit to.  The value is the number of edge-disjoint s-t
    paths, or with ``vertex_mode`` of internally disjoint ones, an edge st
    being one path.  With ``limit`` set, augmenting stops once the value
    reaches it, so the value is exact only when it is below ``limit``.

    The flow runs on a directed graph, the arcs out of node u being
    ``out[u]`` and those into it ``inn[u]``.  In edge mode the nodes are
    the vertices and each edge is an arc both ways, so a unit on uw cancels
    one on wu.  In vertex mode the graph is split: vertex v becomes an
    in-node v and an out-node v + n joined by one arc, and each edge uw
    the arcs from u + n to w and from w + n to u, so every vertex carries
    at most one unit; the flow goes from s + n to t.  Each augmenting path
    comes from a breadth-first search kept as one mask per layer, and is
    walked back from t through the layers."""
    n = len(adj)
    top = min(adj[s].bit_count(), adj[t].bit_count())
    if limit is not None:
        top = min(top, limit)
    if vertex_mode:
        out = [1 << (v + n) for v in range(n)] + list(adj)
        inn = [a << n for a in adj] + [1 << v for v in range(n)]
        s += n
    else:
        out = inn = adj
    succ = [0] * len(out)
    pred = [0] * len(out)
    sbit = 1 << s
    tbit = 1 << t
    flow = 0
    while flow < top:
        layers = []
        seen = frontier = sbit
        while not frontier & tbit:
            layers.append(frontier)
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                u = b.bit_length() - 1
                nxt |= (out[u] & ~succ[u]) | pred[u]
            frontier = nxt & ~seen
            if not frontier:
                return flow, succ[-n:]  # the out-nodes, which are the last n
            seen |= frontier
        v = t
        for layer in reversed(layers):
            b = layer & ((inn[v] & ~pred[v]) | succ[v])
            b &= -b
            u = b.bit_length() - 1
            if succ[v] & b:  # cancel the unit from v to u
                succ[v] ^= b
                pred[u] ^= 1 << v
            else:
                succ[u] |= 1 << v
                pred[v] |= b
            v = u
        flow += 1
    return flow, succ[-n:]


def _flow_paths(
    succ: Sequence[int], inc: Sequence[int], s: int, t: int
) -> list[tuple[int, int]]:
    """The s-t paths of a flow from ``_menger_flow`` in the graph of the
    incidence masks ``inc``, as (vertex mask, edge mask) pairs, one for
    each unit leaving s, in the order of the vertex it goes to.  Each path
    follows the lowest unit out of each vertex; where it comes back to a
    vertex already on it, the loop is cut off, so the paths are simple and
    pairwise edge-disjoint."""
    succ = list(succ)
    paths = []
    while succ[s]:
        path = [s]
        steps = []  # the edge into each vertex of the path after s
        on = 1 << s
        used = 0
        v = s
        while v != t:
            b = succ[v] & -succ[v]
            succ[v] ^= b
            w = b.bit_length() - 1
            if on & b:
                while path[-1] != w:
                    on ^= 1 << path.pop()
                    used ^= steps.pop()
            else:
                e = inc[v] & inc[w]
                path.append(w)
                steps.append(e)
                on |= b
                used |= e
            v = w
        paths.append((on, used))
    return paths


def _partition_bound(g: Graph, terminals: Sequence[int], stop: int = 0) -> int:
    """⌊cross edges / (|S| - 1)⌋ on a partition of V into |S| parts, one
    per terminal.  Each S-tree joins the parts, so it holds at least
    |S| - 1 cross edges.  The partition starts by giving every vertex to
    its nearest terminal (breadth-first from all terminals at once, ties
    to the terminal that reaches it first, a vertex's unseen neighbours
    taken as one mask); vertices that no terminal reaches stay out of
    every part, and no edge joins them to one.  Each cross edge is in the
    cuts of two parts, a part's cut being the XOR of its vertices'
    incidence masks.  A local search then moves each non-terminal in
    turn to the part that holds most of its neighbours while that cuts
    fewer edges, until no move does.  Terminals never move, so every
    part keeps its terminal and each partition passed is one the bound
    holds for.  A vertex's best move depends only on the parts of its
    neighbours, and right after a move it has none, so it is scored
    again only once a neighbour has moved (the ``dirty`` mask): the moves
    are those of scoring every vertex in every sweep.  A vertex with no
    more neighbours outside its part than inside has no move either.
    The value is returned as soon as it falls below ``stop``, before or
    during the local search; with the default of 0 the local search runs
    to its end."""
    adj = g.adjacency
    inc = g.incident
    owner = [0] * g.n
    part = [1 << t for t in terminals]
    cut = [0] * len(terminals)
    s_mask = seen = _mask_of(terminals)
    order = []
    queue = list(enumerate(part))  # (part, the vertices it takes together)
    for i, batch in queue:
        while batch:
            b = batch & -batch
            batch ^= b
            v = b.bit_length() - 1
            order.append(v)
            owner[v] = i
            cut[i] ^= inc[v]
            new = adj[v] & ~seen
            if new:
                seen |= new
                part[i] |= new
                queue.append((i, new))
    parts = len(terminals) - 1
    cross = sum(c.bit_count() for c in cut) >> 1
    # the value is below stop exactly when cross is below this
    low = stop * parts
    if cross < low:
        return cross // parts
    movable = order[len(terminals):]  # the non-terminals reached
    free = dirty = seen ^ s_mask
    while dirty:
        for v in movable:
            if not dirty >> v & 1:
                continue
            dirty ^= 1 << v
            nb = adj[v]
            here = best = owner[v]
            stay = (nb & part[here]).bit_count()
            if 2 * stay >= nb.bit_count():
                continue
            gain = 0
            for i, mask in enumerate(part):
                d = (nb & mask).bit_count() - stay
                if d > gain:
                    best, gain = i, d
            if gain:
                part[here] ^= 1 << v
                part[best] |= 1 << v
                owner[v] = best
                cross -= gain
                if cross < low:
                    return cross // parts
                dirty |= nb & free
    return cross // parts


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
    g: Graph, terminals: Sequence[int], cap: int | None = None
) -> int:
    """An upper bound on the number of pairwise edge-disjoint S-trees of g
    for the terminal tuple ``terminals`` (|S| >= 2), the least of:

    - ``cap``, when it is set;
    - the least terminal degree, as each tree has its own edge at every
      terminal;
    - for |S| >= 3, the partition bound of ``_partition_bound``
      (Nash-Williams 1961; Tutte 1961) on the nearest-terminal partition
      after a local search, then on the terminal stars of ``_star_bound``.

    Internally disjoint S-trees are edge-disjoint as well, so the bound
    holds for kappa(S) as well as for lambda(S).

    The bounds are tried in the order above, cheapest first, and the
    result is returned as soon as it falls below max(``cap``, 2), where
    the partition's local search stops too: below 2, the values 0 and 1
    differ only in whether the terminals are connected, which the solver
    decides on its own, and a result below ``cap`` already shows that no
    packing of ``cap`` trees exists.
    """
    inc = g.incident
    bound = cap
    for t in terminals:
        d = inc[t].bit_count()
        if bound is None or d < bound:
            bound = d
    stop = cap if cap is not None and cap > 2 else 2
    if bound < stop or len(terminals) < 3:
        return bound
    bound = min(bound, _partition_bound(g, terminals, stop))
    if bound < stop:
        return bound
    return _star_bound(g, terminals, bound)


def cut_bound(g: Graph, terminals: Sequence[int], bound: int, stop: int) -> int:
    """The least of ``bound`` and the Menger edge cuts between
    ``terminals[0]`` and each other terminal.  Each flow stops augmenting
    at the running bound, and the result is returned as soon as it falls
    below ``stop``."""
    for t in terminals[1:]:
        bound = min(bound, _menger_flow(g.adjacency, terminals[0], t, False, bound)[0])
        if bound < stop:
            return bound
    return bound
