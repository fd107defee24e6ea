"""The formula graph that R5 built before it was replaced.

It is the 3-SAT construction for *internally disjoint* trees: each
literal vertex can lie in only one tree, and there its equivalence holds.
For edge-disjoint trees it fails: whenever the formula has two or more
variables the graph packs two edge-disjoint S-trees, satisfiable or not.
The tests keep it as a construction with a known defect, so that the
verification harness is seen to catch one.
"""

from genconn import reductions
from genconn.graphs import CnfFormula, Graph, ReductionOutput


def build(phi: CnfFormula) -> ReductionOutput:
    """Per variable i a selector xh_i with literal vertices x_i and xb_i;
    per clause j a clause vertex c_j and a pendant terminal cp_j; two
    collectors a and b.  Terminals are the selectors and the pendants."""
    n, m = phi.num_vars, phi.num_clauses

    def x_hat(i: int) -> int:  # 1-based variable index
        return 3 * (i - 1)

    def x_pos(i: int) -> int:
        return 3 * (i - 1) + 1

    def x_neg(i: int) -> int:
        return 3 * (i - 1) + 2

    def clause(j: int) -> int:  # 1-based clause index
        return 3 * n + 2 * (j - 1)

    def clause_prime(j: int) -> int:
        return 3 * n + 2 * (j - 1) + 1

    a = 3 * n + 2 * m
    b = a + 1
    edges: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            edges.append(e)

    for i in range(1, n + 1):
        add(x_hat(i), x_pos(i))
        add(x_hat(i), x_neg(i))
    for j, cls in enumerate(phi.clauses, start=1):
        for lit in cls:
            add(x_pos(lit) if lit > 0 else x_neg(-lit), clause(j))
    for i in range(2, n + 1):
        for u in (x_pos(1), x_neg(1)):
            add(u, x_pos(i))
            add(u, x_neg(i))
    add(a, b)
    for j in range(1, m + 1):
        add(a, clause_prime(j))
        add(clause(j), clause_prime(j))
    for i in range(1, n + 1):
        add(b, x_pos(i))
        add(b, x_neg(i))

    roles = {a: "a", b: "b"}
    for i in range(1, n + 1):
        roles[x_hat(i)] = f"xh{i}"
        roles[x_pos(i)] = f"x{i}"
        roles[x_neg(i)] = f"xb{i}"
    for j in range(1, m + 1):
        roles[clause(j)] = f"c{j}"
        roles[clause_prime(j)] = f"cp{j}"
    terminals = tuple(sorted([x_hat(i) for i in range(1, n + 1)]
                             + [clause_prime(j) for j in range(1, m + 1)]))
    return ReductionOutput(Graph(a + 2, tuple(edges)), terminals, 2, roles)


def size_identity(phi: CnfFormula) -> dict[str, object]:
    """The shape of ``build(phi)``: 3n + 2m + 2 vertices, 8n + 2m + N - 3
    edges with N the count of distinct (literal, clause) pairs, and n + m
    terminals."""
    n, m = phi.num_vars, phi.num_clauses
    distinct = sum(len(set(c)) for c in phi.clauses)
    return {"V": 3 * n + 2 * m + 2, "E": 8 * n + 2 * m + distinct - 3, "S": n + m}


def install(monkeypatch) -> None:
    """Make the R5 harness build and size-check this graph instead."""
    monkeypatch.setattr(reductions, "reduce_3sat_to_lambda2", build)
    monkeypatch.setattr(reductions, "size_3sat_to_lambda2", size_identity)
