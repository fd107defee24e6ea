"""Exact solvers: generalized (edge-)connectivity, classical baselines,
and brute-force deciders for the three source problems.

Every packing question goes through one pipeline, ``_packing``: a
decision at l asks for a packing of l trees, a maximum for a largest
packing, and ``kappa_k`` and ``lambda_k`` decide each subset at the least
value so far, computing a value (capped one below it) only for a subset
below it.  The pipeline keeps a bracket [len(trees), hi] on the packing
number, trees being a packing found so far, and runs these stages in
order until one settles the question:

1. bounds: ``bounds.packing_upper_bound``, the least terminal degree and,
   with three or more terminals, the Nash-Williams and Tutte partition
   bound on the nearest-terminal partition after a local search and on
   the terminal stars;
2. two terminals: by Menger, kappa({s, t}) is the number of internally
   disjoint s-t paths, an edge st being one, and lambda({s, t}) the
   number of edge-disjoint ones; ``bounds._menger_flow`` counts both up
   to hi with one augmenting loop, on the adjacency masks or, for
   kappa, on a split graph, and its paths are the packing;
3. peel: ``_peel``, a greedy packing of shortest-path S-trees from each
   terminal in turn, each over the items the earlier ones left, settles
   the question where it reaches hi, and at hi = 1 always;
4. cuts: ``bounds.cut_bound``, the least Menger edge cut from the first
   terminal; it comes after the peel, as it seldom refutes where the
   bounds do not and costs a flow per terminal;
5. search: ``_search_trees`` at hi for a decision, which ends there;
   for a maximum in both modes, climbing from len(trees) + 1 to hi
   until a search fails.

Every stage returns its packing as S-trees, each a (vertex mask, edge
mask), and the witness of a maximum is the packing of the stage that
settled it: the flow's paths, the peel's trees or the trees of the last
search that succeeded.  Each tree with three or more terminals is a
``graphs._paths`` walk, the shortest paths from one terminal to the
others, where every vertex on a path steps back by one edge to the BFS
layer before it, so every leaf is a terminal.  Subset minima build no
witness.  Branch order is fixed, so values and witnesses are
deterministic.

The peel and the search both build trees as colors.  Colors own *items*
and share everything else, and a color's subgraph is the shared part plus
its own items.  One item model, ``_items``, built once per question for
both kinds of packing, says which are which:

- internally disjoint packings (kappa): the items are the non-terminal
  vertices and the terminal-terminal edges; the terminals and all other
  edges are shared;
- edge-disjoint packings (lambda): the items are the edges, and every
  vertex is shared.

Both kinds walk a color's subgraph the same way: ``base``, the vertex
adjacency of the shared edges (all zeros for lambda), plus ``links``, the
edge items the color owns or may still take.  One path walk,
``graphs._paths``, serves both kinds in the peel and in the search: it
returns a tree, whose items are its vertex items and its edge items.
The peel takes one color at a time; the search grows all l colors of a
candidate packing at once.

A color is satisfied once its subgraph connects the terminals.  The search
repeatedly picks the first unsatisfied color and branches over which free
item attaches to its most constrained terminal component, trying first
the items of the color's *support* (below), then the rest, each group in
id order; a tried item is banned from that color in the remaining
branches, which makes the enumeration exhaustive without duplicates.
Prunes: every color still needs a private item at every terminal
(counting argument on the free items attachable there); every color must
still be able to connect the terminals through its own plus free items,
which is walked again only once the color has lost an item of its
support, the items on the paths that connected them at its last walk;
and, for edge-disjoint packings, merging c components of a color takes at
least c - 1 free edges.  A search stops at the first packing of colors.
``_search_trees`` describes how a node is computed: item masks, candidate
masks, cached components and the branch order.

The search runs on an explicit stack of frames, one per node on the
current path, so no function here recurses and a search may go as deep
as memory allows.  It takes the graph as it is: a run of degree-2
non-terminals is searched one item at a time, each node finding its
candidates in the masks that its components keep.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .graphs import (
    CnfFormula,
    Graph,
    GraphError,
    SteinerTree,
    ThreeDMInstance,
    _paths,
    is_connected,
)
from .bounds import _flow_paths, _menger_flow, cut_bound, packing_upper_bound
from .trees import _check_terminals, _mask_of

SUBSET_GUARD_MAX_N = 16  # kappa_k/lambda_k refuse larger graphs without force
SAT_GUARD_MAX_VARS = 24


class GuardError(RuntimeError):
    """Input exceeds the desk-scale guard; pass force=True to override."""


class PackingResult(NamedTuple):
    """Maximum packing size together with a witness realizing it."""

    value: int
    witness: tuple[SteinerTree, ...]


# ---------------------------------------------------------------------------
# Packing search


def _items(
    g: Graph, terminals: Sequence[int], vertex_mode: bool
) -> tuple[int, list[int], int, int, int, list[int]]:
    """The item model of a packing question, built once per question for
    the peel and the searches: (s_mask, base, off, vert_items, edge_items,
    attach).  An item mask holds vertex x at bit x and edge j at bit
    ``off + j``; ``vert_items`` and ``edge_items`` are the vertex and edge
    masks of the items, and the rest of the graph is shared.  A color's
    subgraph is the shared vertices plus its vertex items, walked along
    ``base``, the vertex adjacency of the shared edges, and its edge items.
    ``attach[i]`` is the item mask of the items at ``terminals[i]``.

    - internally disjoint (``vertex_mode``): the items are the
      non-terminal vertices and the terminal-terminal edges, ``off`` is n
      and ``base`` the adjacency without terminal-terminal pairs, so that
      every shared edge has a non-terminal endpoint;
    - edge-disjoint: the items are the edges, ``off`` is 0, every vertex is
      shared and ``base`` is all zeros, so an item mask is an edge mask."""
    s_mask = _mask_of(terminals)
    inc = g.incident
    adj = g.adjacency
    if not vertex_mode:
        return s_mask, [0] * g.n, 0, 0, g.all_edges_mask, [inc[t] for t in terminals]
    edges = g.edges
    base = list(adj)
    vert_items = g.all_vertices_mask & ~s_mask
    edge_items = 0
    for t in terminals:
        base[t] &= ~s_mask
        e = inc[t]
        while e:
            b = e & -e
            e ^= b
            u, v = edges[b.bit_length() - 1]
            if (s_mask >> u) & 1 and (s_mask >> v) & 1:
                edge_items |= b
    off = g.n
    attach = [(adj[t] & vert_items) | ((inc[t] & edge_items) << off) for t in terminals]
    return s_mask, base, off, vert_items, edge_items, attach


def _peel(
    g: Graph, terminals: Sequence[int], l: int, items: tuple
) -> list[tuple[int, int]]:
    """A packing of at most l S-trees that a greedy peel finds, each as
    (vertex mask, edge mask).  It works on the item masks of ``items``,
    the question's ``_items`` model, as the search does.  From each
    terminal in turn as the root, each tree is the ``_paths`` walk from
    the root to the other terminals over the shared part and the items
    that earlier trees left, and it takes its items: its non-terminal
    vertices and terminal-terminal edges (internally disjoint), or its
    edges, every vertex being shared (edge-disjoint).  The trees of one
    root are pairwise disjoint in their items, so each root gives a
    packing; the first to reach l trees is returned, or else the first of
    the largest.

    The root's items are its ``attach`` mask.  A root is saturated when
    its open items number exactly the trees still to place: each of those
    trees needs one of them, so each can have only one, and a tree that
    took two would leave a later tree none.  So the walk of a saturated
    root keeps only its lowest open item, vertex items before edge items,
    and leaves the others to later trees.  A root with exactly l items
    from the start is peeled once per item, with that item as its first
    tree's.  This only chooses which trees the peel takes; every count is
    still a packing.  At l = 1 no root starts restricted, so the first
    root's walk covers the whole graph and finds a tree exactly when the
    terminals are connected."""
    s_mask, base, off, vert_items, edge_items, attach = items
    inc = g.incident
    edges = g.edges
    shared_v = g.all_vertices_mask & ~vert_items
    vbits = (1 << off) - 1
    best: list[tuple[int, int]] = []
    for r, at_r in zip(terminals, attach):
        firsts = [0]
        if at_r.bit_count() == l:
            firsts = [1 << x for x in range(at_r.bit_length()) if (at_r >> x) & 1]
        for first in firsts:
            free = vert_items | (edge_items << off)
            trees = []
            while len(trees) < l:
                own = free
                open_items = at_r & free
                if open_items.bit_count() == l - len(trees):
                    own ^= open_items ^ (open_items & -open_items if trees else first)
                found = _paths(
                    base, inc, edges, 1 << r, s_mask, shared_v | (own & vbits), own >> off
                )
                if found is None:
                    break
                trees.append(found)
                free ^= (found[0] & vert_items) | ((found[1] & edge_items) << off)
            if len(trees) == l:
                return trees
            if len(trees) > len(best):
                best = trees
    return best


def _search_trees(
    g: Graph, terminals: Sequence[int], l: int, items: tuple
) -> list[tuple[int, int]] | None:
    """l >= 1 S-trees, each as (vertex mask, edge mask), pairwise
    internally disjoint or edge-disjoint as ``items``, the question's
    ``_items`` model, says; or None when there are none.  The search
    finds l colors, each connecting the terminals, whose items are
    pairwise disjoint, and each tree is the ``_paths`` walk from the first
    terminal within its color.

    Colors own items and share the rest.  A color's subgraph is walked
    over the vertices it may use (the shared ones plus its own and the
    open vertex items), ``base``, and ``links``, the edge items it owns or
    may still take.  With no vertex items (``off`` = 0, edge-disjoint) a
    merge of c components takes c - 1 free edges, which prunes; with
    them, one vertex can merge many.

    The reachability prune keeps each color's support: an item mask that,
    with the shared part, connects the color's terminals.  Every color
    starts from one walk of the whole item set.  A color whose support
    lies in its own plus open items passes without a walk.  Any
    other color is walked by ``_paths`` from the first terminal, which
    stops once every terminal is reached; its tree gives the new support,
    its vertex items and its edge items.  A missed terminal fails the
    node, as it would with a full walk, so the verdict at every node is
    that of a full walk.  A support left over from a backtracked branch is
    only a guess: it is checked against the color's items before it is
    trusted.

    Each color's terminal components are kept in order of least terminal
    and updated as items join: the components an item touches (its
    endpoints, or a vertex and its ``base`` neighbours) merge at the place
    of the first one.  A component is (vertices, near, cut): its vertex
    mask, the OR of ``adj`` and the XOR of ``inc`` over it, which ``merge``
    keeps.  Its candidates are the free, unbanned vertex items in ``near``
    and edge items in ``cut``, one mask however large it is.  The
    candidates in the color's support are tried first, then the rest, each
    group in id order: the support is current after the prune, so the
    first branches follow paths that still reach the missing terminals,
    and the order costs no walk.

    The search runs on an explicit stack with one frame per node on the
    current path: the target color, its ban and component list as the
    node found them, the items in branch order and the next to try.  A
    node's depth is the number of items the colors hold, so it is bounded
    by memory and not by Python's recursion limit.
    """
    s_mask, base, off, vert_items, edge_items, attach = items
    inc = g.incident
    edges = g.edges
    adj = g.adjacency
    t0 = terminals[0]
    shared_v = g.all_vertices_mask & ~vert_items
    vbits = (1 << off) - 1
    edge_mode = not off  # no vertex is an item

    color = [0] * l
    ban = [0] * l
    free = vert_items | (edge_items << off)
    # Component lists are replaced, never changed in place.
    comps = [[(1 << t, adj[t], inc[t]) for t in terminals]] * l
    # Items that, with the shared part, connect a color's terminals; at
    # the first node every color may use every item, so one walk serves all.
    found = _paths(base, inc, edges, 1 << t0, s_mask, shared_v | vert_items, edge_items)
    if found is None:
        return None
    support = [(found[0] & vert_items) | ((found[1] & edge_items) << off)] * l

    def merge(cl: list[tuple], x: int) -> list[tuple]:
        """``cl`` after item x joins the color: the components x touches
        merge into one, at the place of the first: their ``near`` masks
        ORed, their ``cut`` masks XORed, and the ``adj`` and ``inc`` of
        each vertex x brings in (x, or an edge's far endpoint) added."""
        if x < off:
            new = 1 << x
            touch = new | base[x]
        else:
            u, v = edges[x - off]
            new = touch = (1 << u) | (1 << v)
        out = []
        at = -1
        verts = near = cut = 0
        for c in cl:
            if c[0] & touch:
                verts |= c[0]
                near |= c[1]
                cut ^= c[2]
                if at >= 0:
                    continue
                at = len(out)
            out.append(c)
        new &= ~verts
        while new:
            b = new & -new
            new ^= b
            w = b.bit_length() - 1
            verts |= b
            near |= adj[w]
            cut ^= inc[w]
        out[at] = (verts, near, cut)
        return out

    stack = []  # frames: [target, saved ban, saved comps, order, next index]

    def enter() -> list[tuple[int, int]] | None:
        """Visit the node the search stands at: the packing when every
        color connects its terminals; otherwise None, after pushing the
        node's frame unless a prune fails the node."""
        # Branch on the first unsatisfied color, attaching to whichever of
        # its components has the fewest candidates (fail-first locally).
        target = -1
        needed = 0  # merging c components takes >= c-1 new edges
        for i in range(l):
            n_comps = len(comps[i])
            if n_comps == 1:
                continue
            needed += n_comps - 1
            if target == -1:
                target = i
                if not edge_mode:
                    break  # one vertex can merge many components
        if target == -1:
            return [
                _paths(base, inc, edges, 1 << t0, s_mask, shared_v | (c & vbits), c >> off)
                for c in color
            ]
        if edge_mode and needed > free.bit_count():
            return None
        avail = free & ~ban[target]
        cands = 0
        fewest = -1
        for _, near, cut in comps[target]:
            km = ((near & vbits) | (cut << off)) & avail
            count = km.bit_count()
            if fewest == -1 or count < fewest:
                if not count:
                    return None
                fewest, cands = count, km
        # Terminal capacity: every color still needs a private attachment.
        for at in attach:
            have = 0
            for c in color:
                if c & at:
                    have += 1
            if l - have > (at & free).bit_count():
                return None
        # Per-color reachability through own plus unassigned items, walked
        # only when an item of the color's support has left them.
        for i in range(l):
            if len(comps[i]) == 1:
                continue  # its own items connect its terminals
            own = color[i] | (free & ~ban[i])
            if support[i] & ~own:
                found = _paths(
                    base, inc, edges, 1 << t0, s_mask,
                    shared_v | (own & vbits), own >> off,
                )
                if found is None:
                    return None
                support[i] = (found[0] & vert_items) | ((found[1] & edge_items) << off)
        # Candidates on the paths that last connected the color come first
        on = cands & support[target]
        order = []
        for m in (on, cands ^ on):
            while m:
                b = m & -m
                m ^= b
                order.append(b.bit_length() - 1)
        stack.append([target, ban[target], comps[target], order, 0])
        return None

    while True:
        res = enter()
        if res is not None:
            return res
        # Take the next branch of the deepest frame that has one.  Bans are
        # scoped to a node: branch r excludes the items tried by branches
        # 1..r-1, and the whole set is restored once every branch failed.
        while stack:
            frame = stack[-1]
            target, saved, saved_comps, order, r = frame
            if r:
                b = 1 << order[r - 1]
                free |= b
                color[target] ^= b
                ban[target] |= b
            if r == len(order):
                ban[target] = saved
                comps[target] = saved_comps
                stack.pop()
                continue
            frame[4] = r + 1
            x = order[r]
            b = 1 << x
            color[target] |= b
            free ^= b
            comps[target] = merge(saved_comps, x)
            break
        else:
            return None


def _packing(
    g: Graph,
    terminals: Sequence[int],
    vertex_mode: bool,
    need: int,
    cap: int | None,
) -> list[tuple[int, int]] | None:
    """A largest packing of at most ``cap`` S-trees (of any size when
    ``cap`` is None), each as (vertex mask, edge mask), or None once the
    packing number is shown to be below ``need``, which the callers set to
    0 or to ``cap``.  The stages are those of the module docstring, in its
    order; each narrows the bracket [len(trees), hi] or settles the
    question."""
    hi = packing_upper_bound(g, terminals, cap)
    if hi < need:
        return None
    if len(terminals) == 2:
        # Menger: the packing number is the flow value, and its paths
        # are a packing
        value, succ = _menger_flow(g.adjacency, *terminals, vertex_mode, hi)
        return _flow_paths(succ, g.incident, *terminals) if value >= need else None
    items = _items(g, terminals, vertex_mode)
    trees = _peel(g, terminals, hi, items)
    if len(trees) == hi or hi == 1:  # at 1 the peel walks the whole graph
        return trees if len(trees) >= need else None
    # the cuts come after the peel: they seldom refute where the bounds
    # before them do not, and cost a flow per terminal where the peel
    # answers yes
    hi = cut_bound(g, terminals, hi, max(need, 2))
    if hi < need:
        return None
    if len(trees) == hi:
        return trees
    for l in range(hi if need == hi else len(trees) + 1, hi + 1):
        found = _search_trees(g, terminals, l, items)
        if found is None:
            return None if need == hi else trees
        trees = found
    return trees


def _packing_max(g: Graph, s: Iterable[int], vertex_mode: bool) -> PackingResult:
    trees = _packing(g, _check_terminals(g, s), vertex_mode, 0, None)
    return PackingResult(
        len(trees), tuple(SteinerTree.from_masks(g, tv, te) for tv, te in trees)
    )


def _packing_decide(g: Graph, s: Iterable[int], l: int, vertex_mode: bool) -> bool:
    if l < 0:
        raise GraphError(f"negative threshold {l}")
    return _packing(g, _check_terminals(g, s), vertex_mode, l, l) is not None


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


def _subset_min(g: Graph, k: int, vertex_mode: bool, force: bool) -> int:
    """The least packing number over the k-subsets S.  Each subset after
    the first is decided at the least value so far; only a subset below it
    has its value computed, capped one below that value.  No witness trees
    are built."""
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
        if best is not None and _packing(g, s, vertex_mode, best, best) is not None:
            continue
        best = len(_packing(g, s, vertex_mode, 0, None if best is None else best - 1))
        if best <= 1:
            break  # connected graphs never go below 1
    return best


def kappa_k(g: Graph, k: int, force: bool = False) -> int:
    """min over all k-subsets S of kappa_set(g, S); 0 when g is disconnected."""
    return _subset_min(g, k, True, force)


def lambda_k(g: Graph, k: int, force: bool = False) -> int:
    """min over all k-subsets S of lambda_set(g, S); 0 when g is disconnected."""
    return _subset_min(g, k, False, force)


# ---------------------------------------------------------------------------
# Classical connectivity baselines (unit-capacity max-flow)


def classical_kappa(g: Graph) -> int:
    """Vertex connectivity via Menger flows over all nonadjacent pairs;
    the complete graph K_n returns n - 1."""
    if g.n < 2:
        raise GraphError(f"connectivity undefined for n={g.n}")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    adj = g.adjacency
    best = g.n - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not (adj[u] >> v) & 1:
                best = _menger_flow(adj, u, v, True, best)[0]
                if best == 0:
                    return 0
    return best


def classical_lambda(g: Graph) -> int:
    """Edge connectivity via unit-capacity flows from a fixed source."""
    if g.n < 2:
        raise GraphError(f"edge connectivity undefined for n={g.n}")
    return cut_bound(g, range(g.n), g.n - 1, 1)


# ---------------------------------------------------------------------------
# Source-problem deciders (reduction oracles)


def _exact_cover(n: int, rows: Sequence[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Indices of rows exactly covering the items 0..n-1, or None; each row
    is a tuple of distinct item ids.

    Knuth's Algorithm X on bitmasks: ``cols[x]`` holds the rows covering
    item x, so a node's live rows are one int, and a tried row's child
    keeps the live rows outside the columns of its items.  Each node
    branches on the lowest uncovered item with the fewest live rows and
    tries them in ascending index.  The item scan stops at the first count
    of 0 or 1: a 0 ends the node with or without the rest of the scan, and
    a 1 is the minimum.  The search runs on an explicit stack of
    (uncovered items, live rows, rows left to try).

    Every item must be below n, as in both callers.  Then a node's live
    rows are exactly the rows that lie inside its uncovered items, and
    whether those items have an exact cover depends on them alone
    (Nishino, Yasuda, Minato and Nagata 2017 memoize on the same key).  So
    the search remembers every uncovered set it has refuted: that of a
    node whose rows have all failed, and that of a child with an item no
    live row covers; a child whose uncovered set is one of them is
    skipped.  Only failing subtrees are cut, and the branch order is
    unchanged, so the cover returned is the one the plain search finds
    first."""
    if n == 0:
        return ()
    cols = [0] * n
    for i, row in enumerate(rows):
        for x in row:
            cols[x] |= 1 << i

    def branch_rows(remaining: int, avail: int) -> int:
        best = -1
        best_rows = 0
        r = remaining
        while r:
            b = r & -r
            r ^= b
            covering = cols[b.bit_length() - 1] & avail
            count = covering.bit_count()
            if best == -1 or count < best:
                best, best_rows = count, covering
                if count <= 1:
                    break
        return best_rows

    universe = (1 << n) - 1
    avail = (1 << len(rows)) - 1
    stack = [(universe, avail, branch_rows(universe, avail))]
    chosen: list[int] = []  # the row tried at each frame below the top
    refuted = set()  # uncovered item sets with no exact cover
    while stack:
        remaining, avail, untried = stack[-1]
        if not untried:
            stack.pop()
            refuted.add(remaining)
            if chosen:
                chosen.pop()
            continue
        b = untried & -untried
        stack[-1] = (remaining, avail, untried ^ b)
        i = b.bit_length() - 1
        rest, sub_avail = remaining, avail
        for x in rows[i]:
            rest ^= 1 << x
            sub_avail &= ~cols[x]
        if not rest:
            return tuple(chosen) + (i,)
        if rest in refuted:
            continue
        sub_rows = branch_rows(rest, sub_avail)
        if sub_rows:
            chosen.append(i)
            stack.append((rest, sub_avail, sub_rows))
        else:
            refuted.add(rest)
    return None


def decide_3dm(inst: ThreeDMInstance) -> bool:
    """True iff a perfect three-dimensional matching exists (exact cover of
    the three ground sets by the given triples)."""
    n = inst.n
    rows = [(u, n + v, 2 * n + w) for u, v, w in inst.triples]
    return _exact_cover(3 * n, rows) is not None


def rainbow_connected_triples(g: Graph) -> list[tuple[int, int, int]]:
    """All vertex triples with one vertex per part inducing a connected
    subgraph (i.e. carrying at least two of the three possible edges).
    For a pair (u, v), the third vertex w is any part-3 neighbour of u or v
    when uv is an edge, and a common part-3 neighbour otherwise.  So v is
    a neighbour of u or of one of u's part-3 neighbours, and only those v
    are visited; the triples come by ascending u, then v, then w."""
    pu, pv, pw = g.parts()
    adj = g.adjacency
    vmask = _mask_of(pv)
    wmask = _mask_of(pw)
    out = []
    for u in pu:
        au = adj[u]
        near = au
        m = au & wmask
        while m:
            b = m & -m
            m ^= b
            near |= adj[b.bit_length() - 1]
        near &= vmask
        while near:
            b = near & -near
            near ^= b
            v = b.bit_length() - 1
            av = adj[v]
            m = (au | av) & wmask if au & b else au & av & wmask
            while m:
                b = m & -m
                m ^= b
                out.append((u, v, b.bit_length() - 1))
    return out


def solve_problem1(g: Graph) -> tuple[tuple[int, int, int], ...] | None:
    """A partition of the vertices into connected rainbow triples, or None.
    Implemented as exact cover over all connected rainbow triples."""
    g.part_size()
    triples = rainbow_connected_triples(g)
    chosen = _exact_cover(g.n, triples)
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
