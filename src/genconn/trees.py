"""Steiner-tree predicates and terminal-set helpers.

An *S-tree* is a subtree of the host graph containing every terminal; it is
*minimal* when all its leaves are terminals.  Packing searches may look at
minimal trees only: pruning non-terminal leaves from any S-tree preserves
terminal coverage and edge-disjointness and shrinks the vertex set, so
internal disjointness is preserved too.  The test suite checks that claim
(minimality closure) against brute-force oracles rather than assuming it.

``is_steiner_tree``, ``internally_disjoint`` and ``edge_disjoint`` are the
predicates every witness is re-verified with.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, GraphError, SteinerTree, vertex_set


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_terminals(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    terminals = vertex_set(s)
    for t in terminals:
        if not (0 <= t < g.n):
            raise GraphError(f"terminal {t} outside graph of order {g.n}")
    if len(terminals) < 2:
        raise GraphError(f"terminal set must have at least two vertices, got {terminals}")
    return terminals


def is_steiner_tree(g: Graph, s: Iterable[int], tree: SteinerTree) -> bool:
    """Validate that ``tree`` is an S-tree of g: its edges are host edges
    forming a tree on exactly its vertex set, and it contains every
    terminal."""
    terminals = vertex_set(s)
    vs = set(tree.vertices)
    if not set(terminals) <= vs:
        return False
    if len(tree.edges) != len(vs) - 1:
        return False
    if len(set(tree.edges)) != len(tree.edges):
        return False
    seen: set[int] = set()
    for u, v in tree.edges:
        if u >= v or (u, v) not in g.edge_set or u not in vs or v not in vs:
            return False
        seen.update((u, v))
    if len(vs) > 1 and seen != vs:
        return False
    # Acyclic + |E| = |V| - 1 + covering all vertices => connected tree.
    parent = {v: v for v in vs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def internally_disjoint(t1: SteinerTree, t2: SteinerTree, s: Iterable[int]) -> bool:
    """True iff the trees share no edges and their vertex intersection is
    exactly the terminal set."""
    terminals = set(vertex_set(s))
    if set(t1.edges) & set(t2.edges):
        return False
    return set(t1.vertices) & set(t2.vertices) == terminals


def edge_disjoint(t1: SteinerTree, t2: SteinerTree) -> bool:
    """True iff the trees share no edges (vertex sharing unrestricted)."""
    return not (set(t1.edges) & set(t2.edges))
