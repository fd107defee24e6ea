"""Core graph and problem-instance types.

Vertices are dense 0-based integers 0..n-1.  Edges are unordered pairs
stored as (u, v) with u < v; the edge list keeps construction order (the
line-graph construction indexes its vertices by it) while the canonical
file serialization sorts it lexicographically.

All types are immutable after construction, so any number of concurrent
readers is safe.  ``Graph`` and the instance types are ``__slots__``
classes on one value base, ``_Value``: each stores its sequence fields
as tuples, whatever iterable it was given, and ``ReductionOutput`` its
role map as a read-only dict, validates its fields in ``__init__``, and
any later assignment or deletion raises AttributeError.
``SteinerTree`` is a ``typing.NamedTuple``.  Neither needs
``dataclasses``, whose import would add about 6 ms to every start.
Internally, vertex and edge subsets are manipulated as integer bitmasks
(bit v of a vertex mask, bit j of an edge mask), which keeps the search
kernels allocation-free.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

class GraphError(ValueError):
    """A graph or problem instance violates a structural invariant."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the unordered pair {u, v} as (min, max); reject self-loops."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def vertex_set(members: Iterable[int]) -> tuple[int, ...]:
    """Normalize a vertex collection to a sorted tuple of distinct ids."""
    return tuple(sorted(set(members)))


class _Value:
    """Base of the validated types: a slotted record compared by value.

    A subclass names its public fields, in constructor order, in
    ``_fields``, and its ``__init__`` validates them and stores them with
    ``object.__setattr__``.  Afterwards assigning or deleting any
    attribute raises AttributeError.  Two records are equal when they are
    of the same class with equal fields, and hash as the tuple of their
    fields, so a record holding a mutable field is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


class Graph(_Value):
    """Undirected simple graph, optionally tagged with a tripartition.

    ``part_tag``, when present, assigns every vertex a part in {0, 1, 2}
    and every edge must join two distinct parts.
    """

    # ``__dict__`` holds the cached ``edge_set`` and, for a tripartite
    # graph, ``_parts``: the vertices of each part, built while the tags
    # are validated.  Neither is a field.
    __slots__ = ("n", "edges", "part_tag", "adjacency", "incident", "__dict__")
    _fields = ("n", "edges", "part_tag")

    n: int
    edges: tuple[tuple[int, int], ...]
    part_tag: tuple[int, ...] | None
    # Per-vertex bitmasks of neighbor vertices and of incident edge
    # indices, built while the edges are validated.
    adjacency: tuple[int, ...]
    incident: tuple[int, ...]

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        part_tag: Iterable[int] | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        edges = tuple(edges)
        if part_tag is not None:
            part_tag = tuple(part_tag)
        adj = [0] * n
        inc = [0] * n
        bit = 1
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if (adj[u] >> v) & 1:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            inc[u] |= bit
            inc[v] |= bit
            bit <<= 1
        if part_tag is not None:
            if len(part_tag) != n:
                raise GraphError(f"part tags cover {len(part_tag)} of {n} vertices")
            parts: tuple[list[int], ...] = ([], [], [])
            for v, p in enumerate(part_tag):
                if p not in (0, 1, 2):
                    raise GraphError(f"vertex {v} has invalid part {p}")
                parts[p].append(v)
            _set(self, "_parts", tuple(map(tuple, parts)))
            for u, v in edges:
                if part_tag[u] == part_tag[v]:
                    raise GraphError(
                        f"edge ({u},{v}) joins two vertices of part {part_tag[u]}"
                    )
        _set(self, "n", n)
        _set(self, "edges", edges)
        _set(self, "part_tag", part_tag)
        _set(self, "adjacency", tuple(adj))
        _set(self, "incident", tuple(inc))

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        part_tag: Iterable[int] | None = None,
    ) -> "Graph":
        """Build a graph, normalizing each edge pair to (min, max)."""
        return cls(
            n,
            tuple(normalize_edge(u, v) for u, v in edges),
            part_tag,
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    @property
    def all_vertices_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def all_edges_mask(self) -> int:
        return (1 << self.m) - 1

    def parts(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of each part, sorted; requires a tripartition tag."""
        if self.part_tag is None:
            raise GraphError("graph carries no tripartition")
        return self._parts

    def part_size(self) -> int:
        """The common size q of the three parts; unequal parts raise."""
        if self.part_tag is None:
            raise GraphError("graph carries no tripartition")
        sizes = tuple(map(len, self._parts))
        if len(set(sizes)) != 1:
            raise GraphError(f"parts have sizes {sizes}, expected equal")
        return sizes[0]


class SteinerTree(NamedTuple):
    """A tree inside a host graph, given by its vertex and edge sets.

    ``vertices`` is sorted and ``edges`` holds (u, v) pairs with u < v in
    lexicographic order, so equality is structural.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_masks(cls, g: Graph, vmask: int, emask: int) -> "SteinerTree":
        vs = []
        while vmask:
            b = vmask & -vmask
            vmask ^= b
            vs.append(b.bit_length() - 1)
        es = []
        while emask:
            b = emask & -emask
            emask ^= b
            es.append(g.edges[b.bit_length() - 1])
        return cls(tuple(vs), tuple(sorted(es)))

    @property
    def vertex_mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m


class ThreeDMInstance(_Value):
    """Three ground sets of size n and a list of index triples."""

    __slots__ = _fields = ("n", "triples")

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, triples: Iterable[tuple[int, int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"negative ground-set size {n}")
        triples = tuple(triples)
        seen = set()
        for t in triples:
            if len(t) != 3 or any(not (0 <= x < n) for x in t):
                raise GraphError(f"triple {t} out of range for n={n}")
            if t in seen:
                raise GraphError(f"duplicate triple {t}")
            seen.add(t)
        _set(self, "n", n)
        _set(self, "triples", triples)

    @property
    def m(self) -> int:
        return len(self.triples)


class CnfFormula(_Value):
    """CNF with exactly three literals per clause.

    Literals are signed 1-based variable indices (DIMACS convention);
    duplicate literals inside a clause are permitted.
    """

    __slots__ = _fields = ("num_vars", "clauses")

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __init__(self, num_vars: int, clauses: Iterable[tuple[int, int, int]] = ()) -> None:
        if num_vars < 0:
            raise GraphError(f"negative variable count {num_vars}")
        clauses = tuple(clauses)
        for c in clauses:
            if len(c) != 3:
                raise GraphError(f"clause {c} does not have exactly three literals")
            for lit in c:
                if lit == 0 or abs(lit) > num_vars:
                    raise GraphError(f"literal {lit} out of range in clause {c}")
        _set(self, "num_vars", num_vars)
        _set(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class _FrozenDict(dict):
    """A dict that refuses every change after construction and hashes by
    its items, so a record holding one stays an immutable value."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


class ReductionOutput(_Value):
    """A transformed instance: graph, terminal set, threshold, provenance.

    ``gadget_map`` names each constructed vertex by its role in the
    construction; roles are unique within one output.  It is stored as a
    read-only copy of the map or the (vertex, role) pairs given, an empty
    one by default.
    ``threshold`` is None for value-preserving constructions that carry no
    decision bound.
    """

    __slots__ = _fields = ("graph", "terminals", "threshold", "gadget_map")

    graph: Graph
    terminals: tuple[int, ...]
    threshold: int | None
    gadget_map: Mapping[int, str]

    def __init__(
        self,
        graph: Graph,
        terminals: Iterable[int] = (),
        threshold: int | None = None,
        gadget_map: Mapping[int, str] | Iterable[tuple[int, str]] | None = None,
    ) -> None:
        gadget_map = _FrozenDict(gadget_map or ())
        terminals = tuple(terminals)
        for t in terminals:
            if not (0 <= t < graph.n):
                raise GraphError(f"terminal {t} outside graph of order {graph.n}")
        if threshold is not None and threshold < 0:
            raise GraphError(f"negative threshold {threshold}")
        labels = list(gadget_map.values())
        if len(labels) != len(set(labels)):
            raise GraphError("gadget roles are not injective")
        _set(self, "graph", graph)
        _set(self, "terminals", terminals)
        _set(self, "threshold", threshold)
        _set(self, "gadget_map", gadget_map)


def _paths(
    base: Sequence[int],
    inc: Sequence[int],
    edges: Sequence[tuple[int, int]],
    start: int,
    targets: int,
    vset: int,
    links: int,
) -> tuple[int, int] | None:
    """Shortest paths from the vertices ``start`` to every vertex of
    ``targets`` in the subgraph that ``vset`` induces under the vertex
    adjacency masks ``base`` plus the edges whose ids are set in ``links``,
    as (vertex mask, edge mask): the vertices on the paths and the ids of
    the edges they use, along ``base`` (which must be symmetric and hold
    edges of ``inc``) or ``links``.  None when some target is not
    reachable.

    The walk is breadth-first, kept layer by layer and stopped once every
    target is reached; a frontier vertex costs one OR, and its ``inc``
    edges are scanned only when ``links`` is non-zero.  Walking back, each
    vertex on a path takes one parent in the layer before it, and the edge
    to it: a ``base`` neighbour, one already on a path first, else the
    lowest one; failing that, the lowest ``links`` edge to that layer.  So
    from one start vertex the paths form a tree whose leaves all lie in
    ``start`` or ``targets``."""
    reached = frontier = start & vset
    layers = [frontier]
    missing = targets & ~reached
    while missing:
        nxt = 0
        if links:
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                v = b.bit_length() - 1
                nxt |= base[v]
                e = inc[v] & links
                while e:
                    eb = e & -e
                    e ^= eb
                    x, y = edges[eb.bit_length() - 1]
                    nxt |= (1 << x) | (1 << y)
        else:
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= base[b.bit_length() - 1]
        frontier = nxt & vset & ~reached
        if not frontier:
            return None
        reached |= frontier
        missing &= ~frontier
        layers.append(frontier)
    on_path = targets
    used = 0
    for d in range(len(layers) - 1, 0, -1):
        prev = layers[d - 1]
        cur = on_path & layers[d]
        while cur:
            b = cur & -cur
            cur ^= b
            v = b.bit_length() - 1
            p = base[v] & prev
            if p:
                p = p & on_path or p
                p &= -p
                on_path |= p
                used |= inc[v] & inc[p.bit_length() - 1]
                continue
            e = inc[v] & links
            while e:
                eb = e & -e
                e ^= eb
                x, y = edges[eb.bit_length() - 1]
                w = y if x == v else x
                if (prev >> w) & 1:
                    used |= eb
                    on_path |= 1 << w
                    break
    return on_path, used


def is_connected(g: Graph, within: Iterable[int] | None = None) -> bool:
    """True iff the graph (or the subgraph induced by ``within``) has one
    connected component.  The empty graph and single vertices count as
    connected by convention.
    """
    if within is None:
        vmask = g.all_vertices_mask
    else:
        vmask = 0
        for v in vertex_set(within):
            if not (0 <= v < g.n):
                raise GraphError(f"vertex {v} outside graph of order {g.n}")
            vmask |= 1 << v
    if vmask == 0:
        return True
    start = vmask & -vmask
    return _paths(g.adjacency, g.incident, g.edges, start, vmask, vmask, 0) is not None


def line_graph(g: Graph) -> Graph:
    """Line graph of g: one vertex per edge of g, indexed by edge-list
    order, adjacent iff the corresponding edges share an endpoint.
    """
    m = g.m
    out = []
    for i in range(m):
        a, b = g.edges[i]
        for j in range(i + 1, m):
            c, d = g.edges[j]
            if a == c or a == d or b == c or b == d:
                out.append((i, j))
    return Graph(m, tuple(out))
