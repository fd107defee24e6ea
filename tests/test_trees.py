import random
from itertools import combinations

import pytest

import oracles
from genconn.graphs import Graph, GraphError, SteinerTree
from genconn.trees import (
    _check_terminals,
    edge_disjoint,
    internally_disjoint,
    is_steiner_tree,
)
from genconn.verify import gen_connected_graphs

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
P3 = Graph(3, ((0, 1), (1, 2)))
K4 = Graph(4, tuple(combinations(range(4), 2)))


def minimal_trees(g: Graph, s: tuple[int, ...]) -> list[SteinerTree]:
    """The oracle's minimal S-trees as SteinerTree values."""
    return [
        SteinerTree(tuple(sorted(vs)), tuple(sorted(es)))
        for vs, es in oracles.minimal_stein_trees(g, s)
    ]


class TestEnumeration:
    """The oracles' S-trees, and the terminal check of the trees module."""

    def test_k4_spanning_trees(self):
        # Cayley: K4 has 4^2 spanning trees, all minimal for S = V
        assert len(oracles.minimal_stein_trees(K4, (0, 1, 2, 3))) == 16

    def test_terminal_outside_graph(self):
        with pytest.raises(GraphError, match="outside"):
            _check_terminals(K3, (0, 7))

    def test_minimality_closure_exhaustive_n5(self):
        # pruning any S-tree's non-terminal leaves gives a minimal S-tree;
        # exhaustive over every connected graph with n <= 5 and every S
        for g in gen_connected_graphs(5):
            if g.n < 2:
                continue
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    minimal = set(oracles.minimal_stein_trees(g, s))
                    for tree in oracles.all_stein_trees(g, s):
                        assert oracles.prune_to_minimal(tree, s) in minimal


class TestPredicates:
    def test_tree_vs_itself(self):
        t = minimal_trees(K3, (0, 1))[0]
        assert not internally_disjoint(t, t, (0, 1))
        assert not edge_disjoint(t, t)

    def test_k3_pair_internally_disjoint(self):
        t1, t2 = minimal_trees(K3, (0, 1))
        assert internally_disjoint(t1, t2, (0, 1))
        assert edge_disjoint(t1, t2)

    def test_shared_internal_vertex(self):
        via2 = SteinerTree((0, 1, 2), ((0, 2), (1, 2)))
        star3 = SteinerTree((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3)))
        assert edge_disjoint(via2, star3)
        assert not internally_disjoint(via2, star3, (0, 1))

    def test_k3_spanning_trees_not_edge_disjoint(self):
        trees = minimal_trees(K3, (0, 1, 2))
        for t1, t2 in combinations(trees, 2):
            assert not edge_disjoint(t1, t2)  # 3 edges cannot host two 2-edge trees

    def test_k4_explicit_edge_disjoint_pair(self):
        t1 = SteinerTree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
        t2 = SteinerTree((0, 1, 2, 3), ((0, 2), (0, 3), (1, 3)))
        assert edge_disjoint(t1, t2)
        assert is_steiner_tree(K4, (0, 1, 2, 3), t1)
        assert is_steiner_tree(K4, (0, 1, 2, 3), t2)

    def test_implication_exhaustive_n5(self):
        # internally disjoint implies edge disjoint, over every pair of
        # minimal trees of every connected graph with n <= 5 and every S
        for g in gen_connected_graphs(5):
            if g.n < 2:
                continue
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    trees = minimal_trees(g, s)
                    for t1, t2 in combinations(trees, 2):
                        if internally_disjoint(t1, t2, s):
                            assert edge_disjoint(t1, t2)

    def test_symmetry(self):
        rng = random.Random(1)
        pool = [g for g in gen_connected_graphs(4) if g.n >= 3]
        for g in rng.sample(pool, 12):
            for size in (2, 3):
                for s in combinations(range(g.n), size):
                    trees = minimal_trees(g, s)
                    for t1, t2 in combinations(trees, 2):
                        assert internally_disjoint(t1, t2, s) == internally_disjoint(
                            t2, t1, s
                        )
                        assert edge_disjoint(t1, t2) == edge_disjoint(t2, t1)


class TestIsSteinerTree:
    def test_rejects_cycle(self):
        assert not is_steiner_tree(K3, (0, 1), SteinerTree((0, 1, 2), K3.edges))

    def test_rejects_non_host_edge(self):
        assert not is_steiner_tree(P3, (0, 2), SteinerTree((0, 2), ((0, 2),)))

    def test_rejects_missing_terminal(self):
        assert not is_steiner_tree(P3, (0, 2), SteinerTree((0, 1), ((0, 1),)))

    def test_accepts_valid(self):
        assert is_steiner_tree(P3, (0, 2), SteinerTree((0, 1, 2), ((0, 1), (1, 2))))

    def test_rejects_duplicate_edge(self):
        assert not is_steiner_tree(P3, (0, 1), SteinerTree((0, 1, 2), ((0, 1), (0, 1))))

    def test_rejects_uncovered_vertex(self):
        # |E| = |V| - 1 and every edge in the host, but vertex 3 lies on
        # no edge
        tree = SteinerTree((0, 1, 2, 3), ((0, 1), (0, 2), (1, 2)))
        assert not is_steiner_tree(K4, (0, 1), tree)

    def test_rejects_cycle_with_tree_edge_count(self):
        # a triangle plus a disjoint edge: |E| = |V| - 1, every vertex
        # covered, yet not a tree
        k5 = Graph(5, tuple(combinations(range(5), 2)))
        tree = SteinerTree((0, 1, 2, 3, 4), ((0, 1), (0, 2), (1, 2), (3, 4)))
        assert not is_steiner_tree(k5, (0, 3), tree)


class TestEdgePackingOracle:
    K4_PAIR = [((0, 1), (1, 2), (2, 3)), ((0, 2), (0, 3), (1, 3))]

    def test_accepts_disjoint_spanning_trees(self):
        assert oracles.is_edge_packing(K4, (0, 1, 2, 3), self.K4_PAIR)

    def test_rejects_shared_edge(self):
        trees = [self.K4_PAIR[0], ((0, 1), (0, 2), (0, 3))]
        assert not oracles.is_edge_packing(K4, (0, 1, 2, 3), trees)

    def test_rejects_non_trees(self):
        k5 = Graph(5, tuple(combinations(range(5), 2)))
        cycle_and_edge = [((0, 1), (1, 2), (0, 2), (3, 4))]  # |E| = |V| - 1
        assert not oracles.is_edge_packing(k5, (0, 3), cycle_and_edge)
        assert not oracles.is_edge_packing(P3, (0, 2), [((0, 2),)])
        assert not oracles.is_edge_packing(P3, (0, 2), [((0, 1),)])
