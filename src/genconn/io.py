"""Line-oriented file formats for graphs, matching instances, and CNF.

Graph format::

    graph <n> <m>
    e <u> <v>            (m lines, 0 <= u < v < n)
    parts <p0> ... <p_{n-1}>   (optional, each p in {0,1,2}; at most once)
    set <k> <v1> ... <vk>      (optional terminal set; at most once)

Lines starting with ``#`` and blank lines are ignored.  Parsing preserves
edge order; serialization canonicalizes (edges sorted lexicographically).

3-DM format: ``3dm <n> <m>`` then m lines ``t <u> <v> <w>`` (0-based).
CNF: DIMACS subset — ``p cnf <nvars> <nclauses>`` then clauses of exactly
three literals terminated by 0; ``c`` comment lines are skipped.
"""

from __future__ import annotations

from .graphs import CnfFormula, Graph, GraphError, ReductionOutput, ThreeDMInstance


class FormatError(ValueError):
    """Malformed instance file; the message names the offending line."""


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        return text.decode("utf-8")
    return text


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) for non-blank, non-comment lines."""
    out = []
    for i, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integers, got {fields!r}") from None


def parse_graph_and_set(text: str | bytes) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse the graph format, returning the graph and any declared set."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("line 1: missing 'graph <n> <m>' header")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "graph":
        raise FormatError(f"line {lineno}: malformed header {header!r}")
    n, m = _ints(fields[1:], lineno)
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative counts in header")

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    part_tag: tuple[int, ...] | None = None
    terminals: tuple[int, ...] | None = None
    for lineno, line in lines[1:]:
        fields = line.split()
        tag = fields[0]
        if tag == "e":
            if part_tag is not None or terminals is not None:
                raise FormatError(f"line {lineno}: edge after parts/set line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: malformed edge {line!r}")
            u, v = _ints(fields[1:], lineno)
            if u == v:
                raise FormatError(f"line {lineno}: self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise FormatError(
                    f"line {lineno}: edge ({u},{v}) out of range for n={n}"
                )
            if (u, v) in seen:
                raise FormatError(f"line {lineno}: duplicate edge ({u},{v})")
            seen.add((u, v))
            edges.append((u, v))
        elif tag == "parts":
            if part_tag is not None:
                raise FormatError(f"line {lineno}: second parts line")
            vals = _ints(fields[1:], lineno)
            if len(vals) != n:
                raise FormatError(
                    f"line {lineno}: tripartition covers {len(vals)} of {n} vertices"
                )
            if any(p not in (0, 1, 2) for p in vals):
                raise FormatError(f"line {lineno}: part values must be 0, 1 or 2")
            part_tag = tuple(vals)
        elif tag == "set":
            if terminals is not None:
                raise FormatError(f"line {lineno}: second set line")
            vals = _ints(fields[1:], lineno)
            if not vals or len(vals) != vals[0] + 1:
                raise FormatError(f"line {lineno}: malformed set line {line!r}")
            members = vals[1:]
            if any(not (0 <= v < n) for v in members):
                raise FormatError(f"line {lineno}: set vertex out of range for n={n}")
            if len(set(members)) != len(members):
                raise FormatError(f"line {lineno}: duplicate vertex in set")
            terminals = tuple(sorted(members))
        else:
            raise FormatError(f"line {lineno}: unknown directive {tag!r}")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, file has {len(edges)}")
    try:
        g = Graph(n, tuple(edges), part_tag)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    return g, terminals


def parse_graph(text: str | bytes) -> Graph:
    """Parse the graph format; any declared terminal set is validated and
    dropped (use :func:`parse_graph_and_set` to keep it)."""
    return parse_graph_and_set(text)[0]


def serialize_graph(
    g: Graph,
    terminals: tuple[int, ...] | None = None,
    roles: dict[int, str] | None = None,
) -> str:
    """Canonical text form: header, edges sorted lexicographically, then
    optional parts / set lines and ``# role`` comments."""
    out = [f"graph {g.n} {g.m}"]
    for u, v in sorted(g.edges):
        out.append(f"e {u} {v}")
    if g.part_tag is not None:
        out.append("parts " + " ".join(str(p) for p in g.part_tag))
    if terminals:
        out.append(f"set {len(terminals)} " + " ".join(str(v) for v in sorted(terminals)))
    if roles:
        for vid in sorted(roles):
            out.append(f"# role {vid} {roles[vid]}")
    return "\n".join(out) + "\n"


def serialize_reduction(out: ReductionOutput) -> str:
    return serialize_graph(out.graph, out.terminals or None, dict(out.gadget_map))


def parse_3dm(text: str | bytes) -> ThreeDMInstance:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("line 1: missing '3dm <n> <m>' header")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "3dm":
        raise FormatError(f"line {lineno}: malformed header {header!r}")
    n, m = _ints(fields[1:], lineno)
    triples: list[tuple[int, int, int]] = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if fields[0] != "t" or len(fields) != 4:
            raise FormatError(f"line {lineno}: malformed triple {line!r}")
        u, v, w = _ints(fields[1:], lineno)
        if any(not (0 <= x < n) for x in (u, v, w)):
            raise FormatError(f"line {lineno}: triple ({u},{v},{w}) out of range")
        if (u, v, w) in triples:
            raise FormatError(f"line {lineno}: duplicate triple ({u},{v},{w})")
        triples.append((u, v, w))
    if len(triples) != m:
        raise FormatError(f"header declares {m} triples, file has {len(triples)}")
    return ThreeDMInstance(n, tuple(triples))


def serialize_3dm(inst: ThreeDMInstance) -> str:
    out = [f"3dm {inst.n} {inst.m}"]
    for u, v, w in inst.triples:
        out.append(f"t {u} {v} {w}")
    return "\n".join(out) + "\n"


def parse_cnf(text: str | bytes) -> CnfFormula:
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, int, int]] = []
    for i, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if num_vars is not None or len(fields) != 4 or fields[1] != "cnf":
                raise FormatError(f"line {i}: malformed problem line {line!r}")
            num_vars, num_clauses = _ints(fields[2:], i)
            continue
        if num_vars is None:
            raise FormatError(f"line {i}: clause before 'p cnf' line")
        lits = _ints(fields, i)
        if len(lits) != 4 or lits[-1] != 0:
            raise FormatError(
                f"line {i}: expected exactly three literals terminated by 0"
            )
        for lit in lits[:3]:
            if lit == 0 or abs(lit) > num_vars:
                raise FormatError(f"line {i}: literal {lit} out of range")
        clauses.append((lits[0], lits[1], lits[2]))
    if num_vars is None:
        raise FormatError("missing 'p cnf <nvars> <nclauses>' line")
    if num_clauses != len(clauses):
        raise FormatError(
            f"problem line declares {num_clauses} clauses, file has {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


def serialize_cnf(phi: CnfFormula) -> str:
    out = [f"p cnf {phi.num_vars} {phi.num_clauses}"]
    for c in phi.clauses:
        out.append(f"{c[0]} {c[1]} {c[2]} 0")
    return "\n".join(out) + "\n"
