import gc
import hashlib
import random
import time
from collections import Counter
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from genconn import bounds, solver
from genconn.bounds import packing_upper_bound
from genconn.graphs import (
    CnfFormula,
    Graph,
    GraphError,
    SteinerTree,
    ThreeDMInstance,
    _paths,
    is_connected,
)
from genconn.reductions import (
    reduce_3dm_to_p1,
    reduce_lambda2_to_lambdal,
    reduce_lambda_to_kappa,
    reduce_p1_to_kappa,
)
from genconn.solver import (
    GuardError,
    classical_kappa,
    classical_lambda,
    decide_3dm,
    decide_3sat,
    decide_kappa_set,
    decide_lambda_set,
    decide_problem1,
    kappa_k,
    kappa_set,
    lambda_k,
    lambda_set,
    rainbow_connected_triples,
    solve_problem1,
)
from genconn.verify import (
    VerifyBudget,
    gen_3dm,
    gen_balanced_tripartite,
    gen_connected_graphs,
    verify_packing_result,
    verify_reduction,
)

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
P3 = Graph(3, ((0, 1), (1, 2)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
K4 = Graph(4, tuple(combinations(range(4), 2)))
K5 = Graph(5, tuple(combinations(range(5), 2)))
C4 = Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
C6 = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))


class TestKappaSet:
    def test_p3_cut_vertex(self):
        assert kappa_set(P3, (0, 2)).value == 1

    def test_k3_pair(self):
        res = kappa_set(K3, (0, 1))
        assert res.value == 2
        assert verify_packing_result(K3, (0, 1), res, vertex_mode=True)

    def test_split_terminals_zero(self):
        g = Graph(4, ((0, 1), (2, 3)))
        res = kappa_set(g, (0, 2))
        assert res.value == 0 and res.witness == ()

    def test_split_terminals_of_degree_two_zero(self):
        # every terminal degree is 2, so only the Menger cut shows the split
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        for maximum in (kappa_set, lambda_set):
            res = maximum(g, (0, 3))
            assert res.value == 0 and res.witness == ()

    def test_requires_two_terminals(self):
        with pytest.raises(GraphError, match="two"):
            kappa_set(K3, (0,))


class TestLambdaSet:
    def test_k3_all(self):
        assert lambda_set(K3, (0, 1, 2)).value == 1

    def test_k4_all(self):
        res = lambda_set(K4, (0, 1, 2, 3))
        assert res.value == 2
        assert verify_packing_result(K4, (0, 1, 2, 3), res, vertex_mode=False)

    def test_p3(self):
        assert lambda_set(P3, (0, 2)).value == 1


def _all_graphs(max_n: int):
    """Every labeled graph on 2 to ``max_n`` vertices, connected or not."""
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1))


class TestDecide:
    def test_zero_threshold_always_true(self):
        assert decide_kappa_set(P3, (0, 2), 0)
        assert decide_lambda_set(P3, (0, 2), 0)

    def test_k3_pair(self):
        assert decide_kappa_set(K3, (0, 1), 2)
        assert not decide_kappa_set(P3, (0, 2), 2)

    def test_negative_threshold(self):
        with pytest.raises(GraphError, match="negative"):
            decide_kappa_set(K3, (0, 1), -1)

    def test_matches_max(self):
        # every labeled graph with n <= 4, connected or not, and every S:
        # whether the terminals are connected is left to the peel and the
        # search, so a decision at 1 must agree with the maximum too
        for g in _all_graphs(4):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    for maximum, decide in (
                        (kappa_set, decide_kappa_set),
                        (lambda_set, decide_lambda_set),
                    ):
                        value = maximum(g, s).value
                        for l in range(value + 2):
                            assert decide(g, s, l) == (l <= value), (g.edges, s, l)

    def test_search_at_one_is_connectivity(self):
        # a search at 1 runs where the cuts bring the bound down to 1
        # after a peel at 2 or more found no tree; it must find a tree
        # exactly when the terminals are connected, on every labeled
        # graph with n <= 5 and every S
        for g in _all_graphs(5):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    connected = set(s) <= oracles.reachable(
                        g, s[0], range(g.n), g.all_edges_mask
                    )
                    for vertex_mode in (True, False):
                        items = solver._items(g, s, vertex_mode)
                        found = solver._search_trees(g, s, 1, items)
                        assert (found is not None) == connected, (g.edges, s, vertex_mode)


class TestSubsetMinima:
    def test_disconnected_zero(self):
        g = Graph(4, ((0, 1), (2, 3)))
        for k in range(2, 5):
            assert kappa_k(g, k) == 0
            assert lambda_k(g, k) == 0

    def test_k4(self):
        assert kappa_k(K4, 2) == 3 == classical_kappa(K4)

    def test_c4(self):
        assert kappa_k(C4, 3) == 1
        assert lambda_k(C4, 3) == 1

    def test_k_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            kappa_k(K4, 5)
        with pytest.raises(GraphError, match="out of range"):
            kappa_k(K4, 1)

    def test_guard(self):
        big = Graph(17, tuple((i, i + 1) for i in range(16)))
        with pytest.raises(GuardError):
            kappa_k(big, 2)
        assert kappa_k(big, 2, force=True) == 1

    def test_minima_match_oracle_n4(self):
        # later subsets are only decided at the running minimum, so a
        # wrong decision or value below it would show here
        for g in gen_connected_graphs(4):
            if g.n < 2:
                continue
            for k in range(2, g.n + 1):
                subsets = list(combinations(range(g.n), k))
                trees = [oracles.all_stein_trees(g, s) for s in subsets]
                for mode, fn in (("vertex", kappa_k), ("edge", lambda_k)):
                    want = min(
                        oracles.max_packing(g, s, mode, t) for s, t in zip(subsets, trees)
                    )
                    assert fn(g, k) == want, (g.edges, k, mode)


def _count_searches(monkeypatch) -> list[int]:
    """The thresholds of the ``_search_trees`` calls made from now on."""
    calls = []
    search = solver._search_trees

    def counted(g, terminals, l, items):
        calls.append(l)
        return search(g, terminals, l, items)

    monkeypatch.setattr(solver, "_search_trees", counted)
    return calls


def _forbidden(*args):
    raise AssertionError("called")


class TestSearchOrder:
    def test_maximum_at_the_bound_searches_once(self, monkeypatch):
        # a peel of three trees reaches the bound, so the maximum takes
        # the peel's trees as its witness and runs no search
        calls = _count_searches(monkeypatch)
        res = lambda_set(K5, (0, 1, 2))
        assert res.value == 3
        assert calls == []
        assert verify_packing_result(K5, (0, 1, 2), res, vertex_mode=False)

    def test_failed_bound_falls_back_to_ascending(self, monkeypatch):
        # bound 3 from the nearest-terminal partition, which no single
        # move lowers; lambda = 2, from {0, 5}, {2} and {1, 3, 4}.  The
        # peel finds two trees, so the climb starts at 3, the bound; once
        # that search fails the witness is the peel's, with no search at 2
        g = Graph.from_edges(6, [
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4),
        ])
        calls = _count_searches(monkeypatch)
        res = lambda_set(g, (0, 2, 3))
        assert calls == [3]
        assert res.value == 2
        assert verify_packing_result(g, (0, 2, 3), res, vertex_mode=False)

    def test_kappa_climbs_to_the_bound(self, monkeypatch):
        # two K5s sharing vertex 0, S = (1, 2, 5): the edge bounds give 3,
        # but every S-tree passes through vertex 0, so kappa never
        # searches at the edge bound
        g = Graph.from_edges(
            9, [*combinations(range(5), 2), *combinations((0, 5, 6, 7, 8), 2)]
        )
        calls = _count_searches(monkeypatch)
        res = kappa_set(g, (1, 2, 5))
        assert calls == [2]
        assert res.value == 1
        assert verify_packing_result(g, (1, 2, 5), res, vertex_mode=True)
        # a peel of three trees in K5 shows that the bound is kappa, and
        # its trees are the witness, so kappa does not search
        calls.clear()
        assert kappa_set(K5, (0, 1, 2)).value == 3
        assert calls == []
        # edge-disjoint trees share vertex 0, so a peel of three trees
        # reaches lambda's bound and nothing is searched
        calls.clear()
        assert lambda_set(g, (1, 2, 5)).value == 3
        assert calls == []
        # with two terminals the vertex flow sees the cut vertex
        calls.clear()
        assert kappa_set(g, (1, 5)).value == 1
        assert lambda_set(g, (1, 5)).value == 4
        assert calls == []

    def test_subset_minima_decide_at_the_minimum(self, monkeypatch):
        # K5 with k = 3: a peel reaches the first subset's bound 3, and
        # every later subset is decided at 3 by a peel, so nothing is
        # searched; with k = 2 every pair is a Menger flow; no witness
        # tree is built
        monkeypatch.setattr(SteinerTree, "from_masks", _forbidden)
        calls = _count_searches(monkeypatch)
        assert lambda_k(K5, 3) == 3
        assert calls == []
        calls.clear()
        assert kappa_k(K5, 3) == 3
        assert calls == []
        calls.clear()
        assert lambda_k(K5, 2) == 4
        assert kappa_k(K5, 2) == 4
        assert calls == []

    def test_r6_k4_branches_on_the_support_first(self, monkeypatch):
        # K4 lifted to l = 4 by R6: the peel stops short of 4 and one
        # search decides; trying the candidates on the color's support
        # first finds the packing in 54 path walks and 32 nodes, and 4
        # more walks build its trees
        out = reduce_lambda2_to_lambdal(K4, (0, 1, 2, 3), 4)
        assert out.graph.n == 18 and out.terminals == (4, 7, 10, 13)
        calls = _count_searches(monkeypatch)
        walks = []
        paths = solver._paths

        def counted(*args):
            walks.append(1)
            return paths(*args)

        monkeypatch.setattr(solver, "_paths", counted)
        assert decide_lambda_set(out.graph, out.terminals, 4)
        assert calls == [4]
        assert len(walks) <= 60

    def test_two_terminal_lambda_decided_by_the_bound(self, monkeypatch):
        # lambda({s, t}) is the local edge connectivity, which the Menger
        # flow computes
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        for g in gen_connected_graphs(4):
            for s in combinations(range(g.n), 2):
                best = oracles.max_packing(g, s, "edge")
                top = max(g.incident[t].bit_count() for t in s) + 1
                for l in range(top + 1):
                    assert decide_lambda_set(g, s, l) == (l <= best), (g.edges, s, l)


class TestClassical:
    def test_complete_graphs(self):
        assert classical_kappa(K5) == 4
        assert classical_lambda(K5) == 4

    def test_path(self):
        assert classical_kappa(P4) == 1
        assert classical_lambda(P4) == 1

    def test_cycle(self):
        assert classical_kappa(C6) == 2
        assert classical_lambda(C6) == 2

    def test_disconnected(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert classical_kappa(g) == 0
        assert classical_lambda(g) == 0

    def test_too_small(self):
        with pytest.raises(GraphError):
            classical_kappa(Graph(1))

    def test_identities_on_small_graphs(self):
        for g in gen_connected_graphs(4):
            if g.n < 2:
                continue
            assert kappa_k(g, 2) == classical_kappa(g), g.edges
            assert lambda_k(g, 2) == classical_lambda(g), g.edges

    def test_pair_values_match_menger_flows_n5(self, monkeypatch):
        # two-terminal packing values coincide with the oracle's own
        # augmenting-path count for every pair of every connected graph
        # with n <= 5, each witness, the flow's paths, re-verifies, and
        # nothing is searched or walked for a tree
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        monkeypatch.setattr(solver, "_paths", _forbidden)
        for g in gen_connected_graphs(5):
            for u, v in combinations(range(g.n), 2):
                for mode, vertex_mode, maximum, decide in (
                    ("vertex", True, kappa_set, decide_kappa_set),
                    ("edge", False, lambda_set, decide_lambda_set),
                ):
                    best = oracles.menger_count(g, u, v, mode)
                    res = maximum(g, (u, v))
                    assert res.value == best, (g.edges, u, v, mode)
                    assert verify_packing_result(g, (u, v), res, vertex_mode=vertex_mode)
                    assert decide(g, (u, v), best)
                    assert not decide(g, (u, v), best + 1)


    def test_flow_reroutes_along_an_earlier_path(self):
        # the shortest path 0-1-2-3-4 comes first; the second unit must
        # enter it at 3 and walk back through 2 to 1, so the flow's vertex
        # 2 leaves it: 0-5-6-7-3-4 and 0-1-8-9-10-4
        g = Graph.from_edges(11, [
            (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3),
            (1, 8), (8, 9), (9, 10), (10, 4),
        ])
        for mode, vertex_mode, maximum, decide in (
            ("vertex", True, kappa_set, decide_kappa_set),
            ("edge", False, lambda_set, decide_lambda_set),
        ):
            assert oracles.menger_count(g, 0, 4, mode) == 2
            res = maximum(g, (0, 4))
            assert res.value == 2
            assert verify_packing_result(g, (0, 4), res, vertex_mode=vertex_mode)
            assert decide(g, (0, 4), 2)

    def test_flow_matches_oracle_past_n5(self):
        # seeded graphs on 6 to 12 vertices, where augmenting paths can
        # reroute along long stretches of earlier ones: at every limit the
        # flow value is the oracle's count capped at the limit, and with
        # no limit its paths are that many disjoint s-t paths
        rng = random.Random(24)
        for _ in range(500):
            n = rng.randint(6, 12)
            p = rng.uniform(0.2, 0.6)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            s, t = rng.sample(range(n), 2)
            adj, inc = g.adjacency, g.incident
            top = min(adj[s].bit_count(), adj[t].bit_count())
            for mode, vertex_mode in (("vertex", True), ("edge", False)):
                best = oracles.menger_count(g, s, t, mode)
                for limit in range(top + 1):
                    value = bounds._menger_flow(adj, s, t, vertex_mode, limit)[0]
                    assert value == min(best, limit), (g.edges, s, t, mode, limit)
                value, succ = bounds._menger_flow(adj, s, t, vertex_mode)
                assert value == best, (g.edges, s, t, mode)
                paths = bounds._flow_paths(succ, inc, s, t)
                assert len(paths) == best
                _assert_disjoint_paths(g, s, t, paths, vertex_mode)

    def test_flow_paths_cut_a_loop(self):
        # this edge-mode flow from 16 to 17 holds the directed cycle
        # 0 -> 5 -> 12 -> 0, each its vertex's lowest unit, so the path
        # that reaches 5 runs round it back to 5 and the loop is cut off
        g = Graph(21, (
            (0, 5), (0, 6), (0, 8), (0, 11), (0, 12), (0, 17), (0, 20), (1, 3),
            (1, 4), (1, 5), (1, 7), (1, 15), (1, 20), (2, 12), (2, 17), (3, 16),
            (3, 18), (3, 19), (4, 8), (4, 9), (4, 13), (4, 18), (4, 19), (4, 20),
            (5, 6), (5, 10), (5, 11), (5, 12), (5, 15), (5, 17), (5, 18), (6, 8),
            (6, 11), (6, 20), (7, 9), (7, 10), (7, 12), (7, 20), (8, 12), (8, 15),
            (8, 19), (8, 20), (9, 10), (9, 16), (9, 20), (10, 11), (10, 12),
            (11, 19), (11, 20), (12, 13), (12, 16), (13, 14), (13, 17), (13, 18),
            (14, 19), (15, 20), (16, 20), (18, 19),
        ))
        value, succ = bounds._menger_flow(g.adjacency, 16, 17, False)
        assert value == 4
        for u, w in ((0, 5), (5, 12), (12, 0)):
            assert succ[u] & -succ[u] == 1 << w
        paths = bounds._flow_paths(succ, g.incident, 16, 17)
        assert len(paths) == 4
        assert any(vs >> 5 & 1 for vs, _ in paths)
        _assert_disjoint_paths(g, 16, 17, paths, False)
        res = lambda_set(g, (16, 17))
        assert res.value == 4
        assert verify_packing_result(g, (16, 17), res, vertex_mode=False)
        assert decide_lambda_set(g, (16, 17), 4)
        assert not decide_lambda_set(g, (16, 17), 5)


def _assert_disjoint_paths(g, s, t, paths, vertex_mode) -> None:
    """Each (vertex mask, edge mask) of ``paths`` is a simple s-t path, and
    the paths are pairwise edge-disjoint, and with ``vertex_mode``
    internally disjoint."""
    ends = (1 << s) | (1 << t)
    for i, (vs, es) in enumerate(paths):
        # a tree whose vertices have degree at most 2 and whose ends are s
        # and t is an s-t path
        deg = Counter(v for j, e in enumerate(g.edges) if es >> j & 1 for v in e)
        assert vs & ends == ends
        assert set(deg) == _members(vs) == oracles.reachable(g, s, _members(vs), es)
        assert len(deg) == es.bit_count() + 1
        assert max(deg.values()) <= 2
        assert deg[s] == deg[t] == 1
        for ws, fs in paths[:i]:
            assert not es & fs
            if vertex_mode:
                assert vs & ws == ends


class TestDeterminism:
    def test_repeated_calls_identical(self):
        rng = random.Random(7)
        pool = [g for g in gen_connected_graphs(5) if g.n == 5]
        for g in rng.sample(pool, 8):
            for s in ((0, 1), (0, 2, 4), (0, 1, 2, 3)):
                assert kappa_set(g, s) == kappa_set(g, s)
                assert lambda_set(g, s) == lambda_set(g, s)

    def test_witnesses_pinned_n4(self):
        # values and witnesses of kappa, lambda and kappa on the line-graph
        # augmentation, for every connected graph with n <= 4 and every S;
        # a change of search order shows up here even when values agree
        h = hashlib.sha256()
        for g in gen_connected_graphs(4):
            if g.n < 2:
                continue
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    aug = reduce_lambda_to_kappa(g, s)
                    for r in (
                        kappa_set(g, s),
                        lambda_set(g, s),
                        kappa_set(aug.graph, aug.terminals),
                    ):
                        h.update(_result_repr(r))
        assert h.hexdigest() == (
            "abe96aaec6419a541041353b8c48b7a6f7f7c57b980ac1511304704bd55514eb"
        )

    def test_witnesses_pinned_n5(self):
        # kappa then lambda for all 19,363 (g, S) pairs with n <= 5; the
        # values alone have a digest of their own, which a change of
        # witnesses leaves as it is, and every witness is a packing of
        # trees whose leaves are terminals
        h = hashlib.sha256()
        values = hashlib.sha256()
        for g in gen_connected_graphs(5):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    for vertex_mode, maximum in ((True, kappa_set), (False, lambda_set)):
                        r = maximum(g, s)
                        assert verify_packing_result(g, s, r, vertex_mode=vertex_mode)
                        assert _leaves_are_terminals(r, s), (g.edges, s)
                        h.update(_result_repr(r))
                        values.update(repr(r.value).encode())
        assert values.hexdigest() == (
            "8fabc6a1d3fbb01aa28545e4d0208eb9235d1140542cc6c4764998596c7739e8"
        )
        assert h.hexdigest() == (
            "84193ea0c63ea146a18d5a6a32bb28f87228332a49ed2e344e4c18cd0e2b0032"
        )

    def test_r2_kappa_witnesses_pinned(self):
        # kappa with the three apex terminals of R2 on every tripartite
        # graph with q <= 2 (4,104 graphs); three terminals on 9 vertices
        # make the search merge components, which n <= 4 never does; every
        # witness re-verifies and every tree leaf is a terminal
        h = hashlib.sha256()
        for q in (1, 2):
            for g in gen_balanced_tripartite(q):
                out = reduce_p1_to_kappa(g, q)
                res = kappa_set(out.graph, out.terminals)
                assert verify_packing_result(out.graph, out.terminals, res, vertex_mode=True)
                assert _leaves_are_terminals(res, out.terminals), g.edges
                h.update(_result_repr(res))
        assert h.hexdigest() == (
            "6b39817dbc50eb1a16ae927702910fb9ff37efeec187a8e6f56aa74d971ea1f9"
        )

    def test_k6_lambda_witnesses_pinned(self):
        # two terminals: the Menger flow's paths, one per neighbour of the
        # first terminal, in the order of that neighbour
        k6 = Graph(6, tuple(combinations(range(6), 2)))
        assert [t.edges for t in lambda_set(k6, (0, 1)).witness] == [
            ((0, 1),),
            ((0, 2), (1, 2)),
            ((0, 3), (1, 3)),
            ((0, 4), (1, 4)),
            ((0, 5), (1, 5)),
        ]
        assert [t.edges for t in lambda_set(k6, (0, 4)).witness] == [
            ((0, 1), (1, 4)),
            ((0, 2), (2, 4)),
            ((0, 3), (3, 4)),
            ((0, 4),),
            ((0, 5), (4, 5)),
        ]
        # three terminals reach the search: a color's candidates leave out
        # the items its earlier sibling branches tried; counting those too
        # picks other components to attach to and finds another packing
        g = Graph(7, (
            (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 5),
            (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        ))
        assert [t.edges for t in lambda_set(g, (0, 1, 6)).witness] == [
            ((0, 6), (1, 6)),
            ((0, 2), (1, 2), (2, 5), (5, 6)),
            ((0, 3), (1, 4), (3, 4), (3, 6)),
            ((0, 5), (1, 5), (4, 5), (4, 6)),
        ]


def _result_repr(r) -> bytes:
    return repr((r.value, tuple((t.vertices, t.edges) for t in r.witness))).encode()


def _leaves_are_terminals(r, s) -> bool:
    """Every vertex of degree <= 1 in a witness tree is a terminal, which
    ``verify_packing_result`` does not check: the trees are minimal."""
    for t in r.witness:
        degree = Counter(v for e in t.edges for v in e)
        if any(degree[v] < 2 and v not in s for v in t.vertices):
            return False
    return True


class TestPackingAgainstOracle:
    def test_all_n4_and_sampled_n5(self):
        rng = random.Random(11)
        pool = list(gen_connected_graphs(4)) + rng.sample(
            [g for g in gen_connected_graphs(5) if g.n == 5], 25
        )
        for g in pool:
            if g.n < 2:
                continue
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    rk = kappa_set(g, s)
                    rl = lambda_set(g, s)
                    trees = oracles.all_stein_trees(g, s)
                    assert rk.value == oracles.max_packing(g, s, "vertex", trees), (
                        g.edges, s)
                    assert rl.value == oracles.max_packing(g, s, "edge", trees), (
                        g.edges, s)
                    assert rl.value >= rk.value
                    assert verify_packing_result(g, s, rk, vertex_mode=True)
                    assert verify_packing_result(g, s, rl, vertex_mode=False)
                    assert _leaves_are_terminals(rk, s), (g.edges, s)
                    assert _leaves_are_terminals(rl, s), (g.edges, s)

    def test_seeded_n6_to_n8(self, monkeypatch):
        # 100 seeded graphs past the exhaustive n <= 5: a random spanning
        # tree on 6 to 8 vertices plus 4 to 7 other pairs, 3 or 4
        # terminals; both maxima and the decisions at the value and one
        # above; 22 of the 600 questions reach the search
        calls = _count_searches(monkeypatch)
        rng = random.Random(1)
        searched = 0
        for _ in range(100):
            n = rng.randint(6, 8)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            others = [e for e in combinations(range(n), 2) if e not in edges]
            edges.update(rng.sample(others, rng.randint(4, 7)))
            g = Graph(n, tuple(sorted(edges)))
            s = tuple(sorted(rng.sample(range(n), rng.randint(3, 4))))
            trees = oracles.all_stein_trees(g, s)
            for mode, vertex_mode, maximum, decide in (
                ("vertex", True, kappa_set, decide_kappa_set),
                ("edge", False, lambda_set, decide_lambda_set),
            ):
                best = oracles.max_packing(g, s, mode, trees)
                before = len(calls)
                res = maximum(g, s)
                searched += len(calls) > before
                assert res.value == best, (g.edges, s, mode)
                assert verify_packing_result(g, s, res, vertex_mode=vertex_mode)
                assert _leaves_are_terminals(res, s), (g.edges, s, mode)
                for l, answer in ((best, True), (best + 1, False)):
                    before = len(calls)
                    assert decide(g, s, l) == answer, (g.edges, s, mode, l)
                    searched += len(calls) > before
        assert searched == 22


def _members(mask: int) -> set[int]:
    return {x for x in range(mask.bit_length()) if (mask >> x) & 1}


def _kappa_parts(g: Graph, s_mask: int) -> tuple[list[int], int]:
    """A kappa color's shared adjacency (without terminal-terminal pairs)
    and the mask of its terminal-terminal edges."""
    base = [
        a & ~s_mask if (s_mask >> v) & 1 else a for v, a in enumerate(g.adjacency)
    ]
    ss_edges = sum(
        1 << j
        for j, (u, v) in enumerate(g.edges)
        if (s_mask >> u) & 1 and (s_mask >> v) & 1
    )
    return base, ss_edges


class TestVertexReach:
    def test_matches_edge_walk_n5(self):
        # a kappa color's subgraph: the terminals and its own non-terminal
        # vertices, every edge with a non-terminal endpoint, and its own
        # terminal-terminal edges; ``_paths`` over vertex adjacency without
        # terminal-terminal pairs, plus those own edges, must find a path
        # to exactly the vertices the oracle's walk over the same edges
        # reaches
        rng = random.Random(29)
        for g in gen_connected_graphs(5):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    s_mask = sum(1 << t for t in s)
                    base, ss_edges = _kappa_parts(g, s_mask)
                    shared_e = g.all_edges_mask & ~ss_edges
                    inner = g.all_vertices_mask & ~s_mask
                    for _ in range(2):
                        vset = s_mask | (inner & rng.getrandbits(g.n))
                        links = ss_edges & rng.getrandbits(g.m)
                        for t in s:
                            reach = oracles.reachable(
                                g, t, _members(vset), shared_e | links
                            )
                            for w in range(g.n):
                                got = _paths(
                                    base, g.incident, g.edges, 1 << t, 1 << w, vset, links
                                )
                                assert (got is not None) == (w in reach), (
                                    g.edges, s, vset, links, w)

    def test_lambda_links_n5(self):
        # a lambda color shares every vertex and no edge: zero adjacency,
        # and ``_paths`` walks its links alone
        rng = random.Random(31)
        for g in gen_connected_graphs(5):
            base = [0] * g.n
            for _ in range(3):
                links = rng.getrandbits(g.m)
                for t in range(g.n):
                    reach = oracles.reachable(g, t, range(g.n), links)
                    for w in range(g.n):
                        got = _paths(
                            base, g.incident, g.edges, 1 << t, 1 << w,
                            g.all_vertices_mask, links,
                        )
                        assert (got is not None) == (w in reach), (g.edges, links, t, w)

    def test_is_connected_every_subset_n5(self):
        for g in gen_connected_graphs(5):
            for mask in range(1 << g.n):
                within = _members(mask)
                expect = not within or oracles.reachable(
                    g, min(within), within, g.all_edges_mask
                ) == within
                assert is_connected(g, within) == expect, (g.edges, within)

    def test_complete_graphs_all_terminals(self):
        # with S = V every item is a terminal-terminal edge
        for g in (K4, K5):
            s = tuple(range(g.n))
            res = kappa_set(g, s)
            assert res.value == oracles.max_packing(g, s, "vertex")
            assert verify_packing_result(g, s, res, vertex_mode=True)


class TestSupportWalk:
    """``graphs._paths``, the walk that gives a color its support and its
    tree: it fails exactly when the oracle walk misses a terminal, and
    otherwise it returns a tree inside the color's subgraph that, with the
    shared vertices, connects every terminal."""

    def _check(self, g, s, base, vset, links, shared_v, shared_e):
        s_mask = sum(1 << t for t in s)
        t0 = s[0]
        got = _paths(base, g.incident, g.edges, 1 << t0, s_mask, vset, links)
        reach = oracles.reachable(g, t0, _members(vset), shared_e | links)
        if not set(s) <= reach:
            assert got is None, (g.edges, s, vset, links)
            return
        assert got is not None, (g.edges, s, vset, links)
        path_v, used = got
        assert not path_v & ~vset and not used & ~(shared_e | links)
        for j in _members(used):
            u, v = g.edges[j]
            assert (path_v >> u) & 1 and (path_v >> v) & 1, (g.edges, s, got)
        assert used.bit_count() == path_v.bit_count() - 1, (g.edges, s, got)
        assert set(s) <= oracles.reachable(
            g, t0, _members(shared_v | path_v), shared_e | used
        ), (g.edges, s, vset, links, got)

    def test_kappa_n5(self):
        rng = random.Random(43)
        for g in gen_connected_graphs(5):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    s_mask = sum(1 << t for t in s)
                    base, ss_edges = _kappa_parts(g, s_mask)
                    inner = g.all_vertices_mask & ~s_mask
                    for _ in range(2):
                        vset = s_mask | (inner & rng.getrandbits(g.n))
                        links = ss_edges & rng.getrandbits(g.m)
                        self._check(
                            g, s, base, vset, links, s_mask,
                            g.all_edges_mask & ~ss_edges,
                        )

    def test_lambda_n5(self):
        rng = random.Random(47)
        for g in gen_connected_graphs(5):
            base = [0] * g.n
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    links = rng.getrandbits(g.m)
                    vmask = g.all_vertices_mask
                    self._check(g, s, base, vmask, links, vmask, 0)


class TestSearchGarbage:
    def test_search_leaves_no_cycle(self):
        # the search's closures are freed by reference counting: nothing
        # is left for the collector after a search
        gc.collect()
        gc.disable()
        try:
            items = solver._items(K5, (0, 1, 2), True)
            assert solver._search_trees(K5, (0, 1, 2), 2, items) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPackingUpperBound:
    def test_bounds_the_oracle_n4(self):
        # with a cap the result is at most the cap and still bounds
        # every packing below it
        for g in gen_connected_graphs(4):
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    best = oracles.max_packing(g, s, "edge")
                    assert packing_upper_bound(g, s) >= best, (g.edges, s)
                    for l in range(1, 5):
                        u = packing_upper_bound(g, s, l)
                        assert min(best, l) <= u <= l, (g.edges, s, l)

    def test_worst_r6_instance_refuted_without_search(self, monkeypatch):
        # K4 minus an edge, S = V, lifted to l = 4: every proxy has degree 4
        # and every Menger cut is 4, but the nearest-terminal partition has
        # 11 cross edges between 4 parts
        k4_minus = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
        out = reduce_lambda2_to_lambdal(k4_minus, (0, 1, 2, 3), 4)
        g, s = out.graph, out.terminals
        assert (g.n, g.m) == (18, 29)
        assert bounds._partition_bound(g, s) == 3

        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(solver, "_search_trees", no_search)
        assert not decide_lambda_set(g, s, 4)

    def test_partition_bounds_the_oracle_n5(self):
        # the local search never takes the partition bound below the
        # packing number
        for g in gen_connected_graphs(5):
            for size in range(3, g.n + 1):
                for s in combinations(range(g.n), size):
                    best = oracles.max_packing(g, s, "edge")
                    assert bounds._partition_bound(g, s) >= best, (g.edges, s)

    def test_partition_stops_below_the_threshold_n5(self):
        # a value below stop comes back exactly when the full local search
        # ends below it; it never undercuts the full value, and is the full
        # value from stop on
        for g in gen_connected_graphs(5):
            for size in range(3, g.n + 1):
                for s in combinations(range(g.n), size):
                    full = bounds._partition_bound(g, s)
                    for stop in range(6):
                        got = bounds._partition_bound(g, s, stop)
                        assert (got < stop) == (full < stop), (g.edges, s, stop)
                        assert got >= full and (got < stop or got == full)

    def test_moved_partition_refutes_without_search(self, monkeypatch):
        # r7-medium-k4-1 of the solve pool: the least degree, the
        # nearest-terminal partition (9 cross edges), the stars and the
        # Menger cuts all give 3; moving vertex 2 to vertex 4's part
        # leaves 8 cross edges between 4 parts, so a peel of two trees
        # settles lambda = 2, and neither 2 nor 3 needs a search
        g = Graph.from_edges(7, [
            (4, 5), (0, 5), (2, 4), (2, 3), (1, 6), (5, 6), (3, 6), (2, 6), (1, 4),
            (3, 4), (2, 5), (1, 2),
        ])
        s = (3, 4, 5, 6)
        assert bounds._partition_bound(g, s) == 2
        calls = _count_searches(monkeypatch)
        res = lambda_set(g, s)
        assert res.value == 2
        assert calls == []
        assert verify_packing_result(g, s, res, vertex_mode=False)
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert not decide_lambda_set(g, s, 3)

    def test_terminal_free_component(self):
        # the partition leaves the second triangle out of every part
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        for s in ((0, 1), (0, 1, 2)):
            best = oracles.max_packing(g, s, "edge")
            assert lambda_set(g, s).value == best
            for l in range(best + 2):
                assert decide_lambda_set(g, s, l) == (l <= best)

    def test_partition_bound_matches_the_edge_scan(self):
        # the mask search, the cut XOR and the dirty-vertex rescoring give
        # the edge-scan reference's value at every stop, and the values
        # are those of the edge-scan version itself
        values = []
        for g, s in _partition_cases():
            for stop in range(6):
                got = bounds._partition_bound(g, s, stop)
                assert got == oracles.partition_bound_reference(g, s, stop), (
                    g.edges, s, stop)
                values.append(got)
        assert len(values) == 6 * 16_446
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "4f380f756146bf2a2669a588d1df065e09cb2b6e875ee5b70b217363606a8c27")


def _partition_cases():
    """(graph, terminals) pairs for the partition bound: every connected
    graph with n <= 5 and every terminal set of 3 or more, R2's 4,104
    apex graphs with their apex terminals, and 500 seeded graphs with
    n = 6-14 and 3-6 terminals in random order, every fourth with its
    last vertices cut off as a terminal-free part."""
    for g in gen_connected_graphs(5):
        for size in range(3, g.n + 1):
            for s in combinations(range(g.n), size):
                yield g, s
    for q in (1, 2):
        for g in gen_balanced_tripartite(q):
            out = reduce_p1_to_kappa(g)
            yield out.graph, out.terminals
    rng = random.Random(27)
    for i in range(500):
        n = rng.randint(6, 14)
        p = rng.uniform(0.15, 0.6)
        c = rng.randint(3, n - 2) if i % 4 == 0 else n
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if (u < c) == (v < c) and rng.random() < p]
        s = tuple(rng.sample(range(c), rng.randint(3, min(c, 6))))
        yield Graph(n, edges), s


def _seeded_graph(i: int) -> tuple[Graph, tuple[int, ...]]:
    """Graph i of the 150 seeded graphs: a random spanning tree on 7 to 9
    vertices, every other pair with probability 0.35, 2 to 4 terminals."""
    rng = random.Random(i)
    n = rng.randint(7, 9)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < 0.35:
            edges.add(pair)
    return Graph(n, tuple(sorted(edges))), tuple(rng.sample(range(n), rng.randint(2, 4)))


class TestStarBound:
    # lambda = 4 from the parts {1}, {2} and the rest: 9 edges touch 1 or
    # 2; both terminals have degree 5 and the nearest-terminal partition
    # gives 7, and 4 after its local search
    G8 = Graph(8, (
        (0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 7), (2, 4), (2, 5),
        (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ))

    def test_refutes_without_search(self, monkeypatch):
        assert bounds._partition_bound(self.G8, (1, 2, 5)) == 4
        assert bounds._star_bound(self.G8, (1, 2, 5), 5) == 4
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert not decide_lambda_set(self.G8, (1, 2, 5), 5)

    def test_seeded_graphs(self):
        for i in range(150):
            g, s = _seeded_graph(i)
            res = lambda_set(g, s)
            assert packing_upper_bound(g, s) >= res.value, (i, g.edges, s)
            assert verify_packing_result(g, s, res, vertex_mode=False), i

    def test_every_star_n5(self):
        # stars over terminals without a terminal neighbour are skipped;
        # the least degree covers them, so the bound is that of every star
        for g in gen_connected_graphs(5):
            for size in range(3, g.n + 1):
                for s in combinations(range(g.n), size):
                    least = min(g.incident[t].bit_count() for t in s)
                    best = least
                    for k in range(2, size):
                        for part in combinations(s, k):
                            touching = sum(1 for e in g.edges if set(e) & set(part))
                            best = min(best, touching // k)
                    assert bounds._star_bound(g, s, least) == best, (g.edges, s)

    def test_no_stars_above_ten_terminals(self):
        # more than STAR_ALL_MAX adjacent terminals enumerate no star
        k12 = Graph(12, tuple(combinations(range(12), 2)))
        assert bounds._star_bound(k12, tuple(range(11)), 99) == 99
        assert bounds._star_bound(k12, tuple(range(10)), 99) < 99


class TestPeel:
    def test_never_exceeds_the_oracle(self):
        # the trees are a packing of terminal-leaved S-trees, as a maximum
        # takes them for its witness: on every n <= 4 set, connected or
        # not, and a sample of n = 5 sets of three or more terminals, at
        # each l up to the least terminal degree; at l = 1 the peel finds
        # a tree exactly when the terminals are connected
        rng = random.Random(15)
        cases = [
            (g, s)
            for g in _all_graphs(4)
            for size in range(2, g.n + 1)
            for s in combinations(range(g.n), size)
        ]
        n5 = [
            (g, s)
            for g in gen_connected_graphs(5) if g.n == 5
            for size in (3, 4, 5)
            for s in combinations(range(5), size)
        ]
        cases += rng.sample(n5, 1500)
        for g, s in cases:
            trees = oracles.all_stein_trees(g, s)
            top = min(g.incident[t].bit_count() for t in s)
            for mode, vertex_mode in (("vertex", True), ("edge", False)):
                best = oracles.max_packing(g, s, mode, trees)
                items = solver._items(g, s, vertex_mode)
                assert bool(solver._peel(g, s, 1, items)) == (best >= 1)
                for l in range(1, top + 1):
                    got = solver._peel(g, s, l, items)
                    assert len(got) <= min(l, best), (g.edges, s, mode, l)
                    res = solver.PackingResult(
                        len(got), tuple(SteinerTree.from_masks(g, tv, te) for tv, te in got)
                    )
                    assert verify_packing_result(g, s, res, vertex_mode=vertex_mode), (
                        g.edges, s, mode, l)
                    assert _leaves_are_terminals(res, s), (g.edges, s, mode, l)

    def test_decides_without_a_search(self, monkeypatch):
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert decide_lambda_set(K5, (0, 1, 2), 3)
        assert decide_kappa_set(K5, (0, 1, 2), 3)

    def test_yes_runs_no_flow(self, monkeypatch):
        # the Menger cuts come after the peel, so a decision the peel
        # answers runs none of them
        monkeypatch.setattr(bounds, "_menger_flow", _forbidden)
        monkeypatch.setattr(solver, "_menger_flow", _forbidden)
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        for g, s, l in ((K5, (0, 1, 2), 3), (K5, (0, 1, 2, 3), 2), (K4, (0, 1, 2), 2)):
            assert decide_lambda_set(g, s, l)
            assert decide_kappa_set(g, s, l)

    def test_cuts_refute_after_the_peel(self, monkeypatch):
        # the R2 graph of a tripartite graph with q = 2: every terminal
        # has degree 2 and the partition bound is 2, but terminal 8 hangs
        # on the rest by one edge, which the peel cannot get round and the
        # Menger cut from terminal 6 finds
        g = reduce_p1_to_kappa(
            Graph(6, ((0, 3), (0, 4), (1, 2), (2, 4)), (0, 0, 1, 1, 2, 2)), 2
        ).graph
        s = (6, 7, 8)
        assert packing_upper_bound(g, s, 2) == 2
        assert len(solver._peel(g, s, 2, solver._items(g, s, True))) == 1
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert not decide_kappa_set(g, s, 2)
        assert not decide_lambda_set(g, s, 2)

    def test_saturated_root_spreads_its_items(self, monkeypatch):
        # the R2 graph with q = 2: apex 6 has the two items 0 and 1.  A
        # first tree 6-1-2-7, 6-0-5-8 would take both; one item per tree
        # gives {0, 3, 5} and then {1, 2, 4}
        g = reduce_p1_to_kappa(
            Graph(6, ((0, 3), (0, 5), (1, 2), (2, 4)), (0, 0, 1, 1, 2, 2)), 2
        ).graph
        s = (6, 7, 8)
        assert len(solver._peel(g, s, 2, solver._items(g, s, True))) == 2
        assert len(solver._peel(g, s, 2, solver._items(g, s, False))) == 2
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert decide_kappa_set(g, s, 2)
        assert decide_lambda_set(g, s, 2)

    def test_edge_disjoint_trees_share_vertices(self, monkeypatch):
        # the edge-disjoint peel takes only a tree's edges: its vertices
        # stay open to later trees.  Here three trees share vertex 4, and
        # a peel that also took the vertices found two
        g = Graph(7, (
            (0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4),
            (3, 5), (4, 5), (4, 6),
        ))
        s = (2, 3, 5)
        assert len(solver._peel(g, s, 3, solver._items(g, s, False))) == 3
        calls = _count_searches(monkeypatch)
        res = lambda_set(g, s)
        assert res.value == 3
        assert verify_packing_result(g, s, res, vertex_mode=False)
        assert decide_lambda_set(g, s, 3)
        assert calls == []

    def test_r2_searches_only_refutations(self, monkeypatch):
        # every R2 "yes" at q <= 2 is answered by the peel; the searches
        # left are the 328 "no" decisions
        found = []
        search = solver._search_trees

        def recorded(*args):
            res = search(*args)
            found.append(res is not None)
            return res

        monkeypatch.setattr(solver, "_search_trees", recorded)
        report = verify_reduction("R2", VerifyBudget(max_n=2))
        assert report.passed
        assert len(found) == 328
        assert not any(found)

    def test_r6_peels_shared_vertices(self, monkeypatch):
        # the lambda peel leaves a tree's vertices to later trees, so all
        # but two of the R6 decisions at l = 3 on n <= 4 are settled
        # without a search (30 searches when the peel took vertices too)
        calls = _count_searches(monkeypatch)
        report = verify_reduction("R6", VerifyBudget(max_n=4, ls=(3,)))
        assert report.passed
        assert len(calls) == 2


class TestLongCycle:
    # Antipodal terminals on a cycle are two paths of the Menger flow
    @pytest.mark.parametrize("maximum, decide, vertex_mode", [
        (kappa_set, decide_kappa_set, True),
        (lambda_set, decide_lambda_set, False),
    ])
    def test_two_paths(self, maximum, decide, vertex_mode):
        for n in (200, 1500):
            cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            s = (0, n // 2)
            res = maximum(cycle, s)
            assert res.value == 2
            assert verify_packing_result(cycle, s, res, vertex_mode=vertex_mode)
            assert decide(cycle, s, 2)
            assert not decide(cycle, s, 3)

    # Three terminals of K4 with every edge made a path of 251 edges: the
    # search takes the paths one vertex at a time, deeper than the default
    # recursion limit.  Each node reads its candidates from the masks its
    # components keep, so with the peel patched out the decision at 2 on
    # 501-edge paths takes about 0.04 s; a node that re-read each vertex
    # of its component would make it quadratic in their length, 0.5 s
    @pytest.mark.parametrize("maximum, decide, vertex_mode", [
        (kappa_set, decide_kappa_set, True),
        (lambda_set, decide_lambda_set, False),
    ])
    def test_three_terminals(self, maximum, decide, vertex_mode, monkeypatch):
        g = _k4_paths(250)
        s = (0, 1, 2)
        res = maximum(g, s)
        assert res.value == 2
        assert verify_packing_result(g, s, res, vertex_mode=vertex_mode)
        assert decide(g, s, 2)
        assert not decide(g, s, 3)
        monkeypatch.setattr(solver, "_peel", lambda *args: [])
        g = _k4_paths(500)
        times = []
        for _ in range(3):
            started = time.perf_counter()
            assert decide(g, s, 2)
            times.append(time.perf_counter() - started)
        assert min(times) < 0.25, times


def _k4_paths(inner: int) -> Graph:
    """K4 with every edge made a path through ``inner`` new vertices."""
    edges = []
    n = 4
    for u, v in K4.edges:
        path = [u, *range(n, n + inner), v]
        edges += zip(path, path[1:])
        n += inner
    return Graph.from_edges(n, edges)


def _circular_ladder(n: int) -> Graph:
    """C_n x K2: the cycles 0..n-1 and n..2n-1, with rungs i, n + i."""
    return Graph.from_edges(2 * n, [
        *((i, (i + 1) % n) for i in range(n)),
        *((n + i, n + (i + 1) % n) for i in range(n)),
        *((i, n + i) for i in range(n)),
    ])


class TestCircularLadder:
    # C750 x K2 has 1,500 vertices and is cubic; by Menger both packing
    # numbers of two terminals are 3, answered by the flow
    @pytest.mark.parametrize("maximum, decide, vertex_mode", [
        (kappa_set, decide_kappa_set, True),
        (lambda_set, decide_lambda_set, False),
    ])
    def test_two_terminals(self, maximum, decide, vertex_mode):
        ladder = _circular_ladder(750)
        s = (0, 375)
        res = maximum(ladder, s)
        assert res.value == 3
        assert verify_packing_result(ladder, s, res, vertex_mode=vertex_mode)
        assert decide(ladder, s, 3)
        assert not decide(ladder, s, 4)

    # With three terminals a search at 2 recursed past the default limit;
    # two shortest-path trees peel off, so the decision needs no search
    @pytest.mark.parametrize("decide", [decide_kappa_set, decide_lambda_set])
    def test_three_terminals_at_two(self, decide, monkeypatch):
        monkeypatch.setattr(solver, "_search_trees", _forbidden)
        assert decide(_circular_ladder(750), (0, 250, 500), 2)

    # Without the peel the search goes one node deeper per item the colors
    # take: on C800 x K2 it is about 1,065 (kappa) and 1,069 (lambda)
    # frames deep, past the default recursion limit of 1,000
    @pytest.mark.parametrize("decide", [decide_kappa_set, decide_lambda_set])
    def test_search_deeper_than_the_recursion_limit(self, decide, monkeypatch):
        monkeypatch.setattr(solver, "_peel", lambda *args: [])
        assert decide(_circular_ladder(800), (0, 266, 533), 2)


def _subdivided_with_tail(g: Graph) -> Graph:
    """g with every edge subdivided once and a two-vertex path hung on
    vertex 0; kappa(S) and lambda(S) of an S inside g stay the same."""
    edges = []
    n = g.n
    for u, v in g.edges:
        edges += [(u, n), (n, v)]
        n += 1
    edges += [(0, n), (n, n + 1)]
    return Graph.from_edges(n + 2, edges)


def _k4_with(n: int, extra) -> Graph:
    """K4 on vertices 0..3 plus the edges ``extra``, on n vertices."""
    return Graph.from_edges(n, [*combinations(range(4), 2), *extra])


class TestSteinerReduction:
    """Graphs that the Steiner degree tests (Duin and Volgenant 1989)
    would shrink, with degree-2 runs and pendant trees: the search takes
    them as they are, and values, witnesses and decisions must match the
    oracle."""

    def test_metamorphic_n4(self):
        for g in gen_connected_graphs(4):
            if g.n < 2:
                continue
            h = _subdivided_with_tail(g)
            for size in range(2, g.n + 1):
                for s in combinations(range(g.n), size):
                    trees = oracles.all_stein_trees(g, s)
                    for mode, vertex_mode, maximum in (
                        ("vertex", True, kappa_set),
                        ("edge", False, lambda_set),
                    ):
                        res = maximum(h, s)
                        assert res.value == oracles.max_packing(g, s, mode, trees), (
                            g.edges, s, mode)
                        assert verify_packing_result(h, s, res, vertex_mode=vertex_mode)

    # (graph, terminals)
    CASES = {
        # a closed run 4-5-6 at vertex 2
        "cycle hung on a vertex": (
            _k4_with(7, [(2, 4), (4, 5), (5, 6), (2, 6)]), (0, 1)),
        # the run 4-5 between the adjacent 2 and 3
        "chain between adjacent ends": (
            _k4_with(6, [(2, 4), (4, 5), (3, 5)]), (0, 1)),
        # the run 4-5-6 between the terminals 0 and 1
        "chain between terminals": (
            _k4_with(7, [(0, 4), (4, 5), (5, 6), (1, 6)]), (0, 1)),
        # the tree 4-5, 4-6-7 hung on vertex 2
        "pendant tree": (
            _k4_with(8, [(2, 4), (4, 5), (4, 6), (6, 7)]), (0, 1, 3)),
        # without the closed run 5-6, vertex 4 has degree 2, and 7-4 is
        # one run between the terminals 0 and 1
        "end drops to degree 2": (
            _k4_with(8, [(0, 7), (4, 7), (1, 4), (4, 5), (5, 6), (4, 6)]), (0, 1)),
        # without the closed run 9-10, vertex 8 is a leaf
        "end drops to degree 1": (
            _k4_with(11, [(2, 8), (8, 9), (9, 10), (8, 10)]), (0, 3)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("mode, vertex_mode, maximum, decide", [
        ("vertex", True, kappa_set, decide_kappa_set),
        ("edge", False, lambda_set, decide_lambda_set),
    ])
    def test_edge_cases(self, name, mode, vertex_mode, maximum, decide):
        g, s = self.CASES[name]
        best = oracles.max_packing(g, s, mode)
        res = maximum(g, s)
        assert res.value == best
        assert verify_packing_result(g, s, res, vertex_mode=vertex_mode)
        assert decide(g, s, best)
        assert not decide(g, s, best + 1)


@st.composite
def graphs_and_sets(draw):
    n = draw(st.integers(2, 5))
    pairs = list(combinations(range(n), 2))
    edges = tuple(p for p in pairs if draw(st.booleans()))
    s = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    return Graph(n, edges), tuple(sorted(s))


class TestDifferential:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(graphs_and_sets())
    def test_solver_matches_oracle(self, case):
        g, s = case
        for mode, vertex_mode, decide, maximum in (
            ("vertex", True, decide_kappa_set, kappa_set),
            ("edge", False, decide_lambda_set, lambda_set),
        ):
            best = oracles.max_packing(g, s, mode)
            for l in range(best + 2):
                assert decide(g, s, l) == (best >= l), (mode, l)
            res = maximum(g, s)
            assert res.value == best
            assert verify_packing_result(g, s, res, vertex_mode=vertex_mode)


class TestDecide3DM:
    def test_singleton(self):
        assert decide_3dm(ThreeDMInstance(1, ((0, 0, 0),)))
        assert not decide_3dm(ThreeDMInstance(1, ()))

    def test_n2(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1), (1, 1, 1)))
        assert decide_3dm(inst)
        assert not decide_3dm(ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1))))

    def test_against_subset_scan(self):
        universe = [(u, v, w) for u in range(2) for v in range(2) for w in range(2)]
        for mask in range(1 << 8):
            triples = tuple(universe[i] for i in range(8) if (mask >> i) & 1)
            inst = ThreeDMInstance(2, triples)
            want = any(
                len({a for a, _, _ in pair}) == 2
                and len({b for _, b, _ in pair}) == 2
                and len({c for _, _, c in pair}) == 2
                for pair in combinations(triples, 2)
            )
            assert decide_3dm(inst) == want

    def test_against_permutation_oracle(self):
        # every instance with n <= 2, then seeded samples at n = 3 from
        # sparse to dense, against an oracle that shares no code with the
        # exact cover (decide_problem1 runs the same search)
        for inst in gen_3dm(2):
            assert decide_3dm(inst) == oracles.matching_by_permutations(inst), inst
        rng = random.Random(26)
        universe = [(u, v, w) for u in range(3) for v in range(3) for w in range(3)]
        answers = Counter()
        for p in (0.15, 0.3, 0.5):
            for _ in range(150):
                triples = [t for t in universe if rng.random() < p]
                rng.shuffle(triples)
                inst = ThreeDMInstance(3, triples)
                want = oracles.matching_by_permutations(inst)
                assert decide_3dm(inst) == want, inst
                answers[want] += 1
        assert min(answers[True], answers[False]) >= 50, answers

    def test_deep_cover_at_default_recursion_limit(self):
        # 1,200 search levels, above Python's default limit of 1,000
        triples = tuple((i, i, i) for i in range(1200))
        assert decide_3dm(ThreeDMInstance(1200, triples))
        assert not decide_3dm(ThreeDMInstance(1200, ((0, 1, 0),) + triples[1:]))


def _p1_family() -> list[Graph]:
    """The R1 graphs of every matching instance with n <= 2 and m <= 4,
    then every balanced tripartite graph with q <= 2."""
    graphs = [reduce_3dm_to_p1(inst)[0] for inst in gen_3dm(2, 4)]
    for q in (1, 2):
        graphs.extend(gen_balanced_tripartite(q))
    return graphs


def _random_tripartite(rng: random.Random, q: int, p: float) -> Graph:
    """A balanced tripartite graph on 3q vertices, its parts shuffled over
    the labels, each cross-part pair an edge with probability p."""
    tag = [0] * q + [1] * q + [2] * q
    rng.shuffle(tag)
    edges = [
        (u, v)
        for u, v in combinations(range(3 * q), 2)
        if tag[u] != tag[v] and rng.random() < p
    ]
    return Graph(3 * q, edges, tag)


def _past_q2_family() -> list[Graph]:
    """Eight seeded random balanced tripartite graphs for each q = 3-6 and
    edge probability 0.1, 0.3 and 0.6."""
    rng = random.Random(26)
    return [
        _random_tripartite(rng, q, p)
        for q in range(3, 7)
        for p in (0.1, 0.3, 0.6)
        for _ in range(8)
    ]


def _first_cover(
    uncovered: frozenset[int], rows: Sequence[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """Plain recursive Algorithm X with the branch order of
    ``solver._exact_cover`` and no memo: the lowest uncovered item with
    the fewest rows inside the uncovered items, its rows by index."""
    if not uncovered:
        return ()
    live = [i for i, r in enumerate(rows) if uncovered.issuperset(r)]
    item = min(sorted(uncovered), key=lambda x: sum(1 for i in live if x in rows[i]))
    for i in live:
        if item in rows[i]:
            rest = _first_cover(uncovered.difference(rows[i]), rows)
            if rest is not None:
                return (i, *rest)
    return None


def _item_tuple(mask: int) -> tuple[int, ...]:
    """The items of a bitmask row, ascending."""
    return tuple(x for x in range(mask.bit_length()) if (mask >> x) & 1)


class _CountedRows(list):
    """A row list that counts the rows read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestExactCover:
    def test_empty_universe(self):
        assert solver._exact_cover(0, []) == ()
        assert solver._exact_cover(0, [(0,), (0, 1)]) == ()

    def test_refuted_remainders_are_skipped(self):
        # the R1 graph with the most nodes in the n <= 2, m <= 4 family:
        # 78 vertices, 102 rainbow triples, no partition; the search tries
        # 668 rows without the memo of refuted remainders and 88 with it
        inst = ThreeDMInstance(2, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)))
        g = reduce_3dm_to_p1(inst)[0]
        rows = _CountedRows(rainbow_connected_triples(g))
        assert (g.n, len(rows)) == (78, 102)
        assert solver._exact_cover(g.n, rows) is None
        assert rows.reads <= 100

    def test_shared_unions_against_subset_scan(self):
        # rows cut from a few blocks in several ways, so that many row
        # sets cover the same items and the same remainders come back on
        # many paths, and a few rows across blocks, whose branches fail;
        # some items are covered by no row.  The answer must be a cover
        # exactly when one exists, and the one the search without a memo
        # finds first
        rng = random.Random(16)
        for _ in range(300):
            items = rng.randint(2, 9)
            universe = (1 << items) - 1
            order = rng.sample(range(items), items)
            rows = []
            while order:
                block = [order.pop() for _ in range(min(len(order), rng.randint(2, 4)))]
                for _ in range(rng.randint(1, 3)):
                    cut = rng.randint(1, len(block))
                    mixed = rng.sample(block, len(block))
                    rows.append(sum(1 << x for x in mixed[:cut]))
                    rows.append(sum(1 << x for x in mixed[cut:]))
            for _ in range(rng.randint(0, 3)):  # rows across blocks
                rows.append(sum(1 << x for x in rng.sample(range(items), 2)))
            rows = [r for r in rows if r]
            if rng.random() < 0.3:
                hole = 1 << rng.randrange(items)
                rows = [r & ~hole for r in rows]
            rng.shuffle(rows)
            rows = rows[:13]
            covers = set()
            for mask in range(1 << len(rows)):
                union = 0
                for i in range(len(rows)):
                    if (mask >> i) & 1:
                        if union & rows[i]:
                            break
                        union |= rows[i]
                else:
                    if union == universe:
                        covers.add(tuple(i for i in range(len(rows)) if mask >> i & 1))
            item_rows = [_item_tuple(r) for r in rows]
            got = solver._exact_cover(items, item_rows)
            assert got == _first_cover(frozenset(range(items)), item_rows), (items, rows)
            if got is None:
                assert not covers, (universe, rows)
            else:
                assert tuple(sorted(got)) in covers, (universe, rows, got)

    def test_against_subset_scan(self):
        # small random instances with duplicate rows, empty rows and items
        # that no row covers; the answer must exist exactly when some set of
        # rows covers every item once, and must be such a set
        rng = random.Random(17)
        for _ in range(400):
            items = rng.randint(1, 7)
            universe = (1 << items) - 1
            rows = []
            for _ in range(rng.randint(0, 8)):
                if rows and rng.random() < 0.2:
                    rows.append(rng.choice(rows))
                else:
                    rows.append(rng.getrandbits(items) & rng.getrandbits(items))
            if rng.random() < 0.3:
                hole = 1 << rng.randrange(items)
                rows = [r & ~hole for r in rows]
            covers = [
                sub
                for size in range(len(rows) + 1)
                for sub in combinations(range(len(rows)), size)
                if sum(rows[i] for i in sub) == universe
                and all(not rows[i] & rows[j] for i, j in combinations(sub, 2))
            ]
            got = solver._exact_cover(items, [_item_tuple(r) for r in rows])
            if got is None:
                assert not covers, (universe, rows)
            else:
                assert tuple(sorted(got)) in covers, (universe, rows, got)


class TestRainbowTriples:
    def test_against_definition(self):
        # one vertex per part, carrying at least two of the three edges;
        # the order is that of the parts' product
        for g in _p1_family():
            es = g.edge_set | {(v, u) for u, v in g.edges}
            pu, pv, pw = g.parts()
            want = [
                (u, v, w)
                for u in pu
                for v in pv
                for w in pw
                if ((u, v) in es) + ((u, w) in es) + ((v, w) in es) >= 2
            ]
            assert rainbow_connected_triples(g) == want

    def test_past_q2_against_definition(self):
        # the candidate pairs of each u come from its neighbourhood; the
        # triples and their order must still be those of the definition
        for g in _past_q2_family():
            pu, pv, pw = g.parts()
            want = [
                (u, v, w)
                for u in pu
                for v in pv
                for w in pw
                if sum(e in g.edge_set for e in combinations(sorted((u, v, w)), 2)) >= 2
            ]
            assert rainbow_connected_triples(g) == want


class TestDecideProblem1:
    def test_rainbow_triangle(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
        assert decide_problem1(g)
        assert solve_problem1(g) == ((0, 1, 2),)

    def test_isolated_vertices(self):
        assert not decide_problem1(Graph(3, (), (0, 1, 2)))

    def test_two_disjoint_rainbow_paths(self):
        g = Graph(
            6, ((0, 2), (2, 4), (1, 3), (3, 5)), (0, 0, 1, 1, 2, 2)
        )
        assert decide_problem1(g)

    def test_missing_tripartition(self):
        with pytest.raises(GraphError, match="tripartition"):
            decide_problem1(Graph(3))

    def test_unequal_parts(self):
        with pytest.raises(GraphError, match="equal"):
            decide_problem1(Graph(3, (), (0, 0, 1)))

    def test_against_permutation_oracle(self):
        from genconn.verify import gen_balanced_tripartite

        for q in (1, 2):
            for g in gen_balanced_tripartite(q):
                assert decide_problem1(g) == oracles.problem1_by_permutations(g)

    def test_partitions_pinned(self):
        # the partition found, not only its existence, on 4,269 graphs
        # (2,467 partition); a change of branch order shows up here
        h = hashlib.sha256()
        for g in _p1_family():
            h.update(repr(solve_problem1(g)).encode())
        assert h.hexdigest() == (
            "a6c7a433af0733974ed6835a70f55c0a97b752d7f1347680151e229e058a0399"
        )

    def test_partitions_past_q2(self):
        # each partition holds rainbow triples with at least two edges
        # and covers every vertex once; the partitions found are pinned,
        # and at q <= 4 their existence is checked against the oracle
        h = hashlib.sha256()
        answers = Counter()
        for g in _past_q2_family():
            part = solve_problem1(g)
            h.update(repr(part).encode())
            answers[part is not None] += 1
            if g.part_size() <= 4:
                assert (part is not None) == oracles.problem1_by_permutations(g)
            if part is None:
                continue
            assert sorted(v for t in part for v in t) == list(range(g.n))
            for t in part:
                assert sorted(g.part_tag[v] for v in t) == [0, 1, 2]
                pairs = combinations(sorted(t), 2)
                assert sum(e in g.edge_set for e in pairs) >= 2, (g, t)
        assert min(answers[True], answers[False]) >= 20, answers
        assert h.hexdigest() == (
            "9fed5df4c59d430b0c999f3686057460d68ebd9d7b8d57d25aaab34fd30c1bc6"
        )


class TestDecide3Sat:
    def test_single_positive(self):
        assert decide_3sat(CnfFormula(1, ((1, 1, 1),)))

    def test_contradiction(self):
        assert not decide_3sat(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))

    def test_satisfiable_pair(self):
        assert decide_3sat(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))))

    def test_empty_formula(self):
        assert decide_3sat(CnfFormula(2, ()))

    def test_guard(self):
        phi = CnfFormula(25, ((1, 2, 3),))
        with pytest.raises(GuardError):
            decide_3sat(phi)
        assert decide_3sat(phi, force=True)

    def test_against_assignment_scan(self):
        rng = random.Random(2)
        for _ in range(50):
            nv = rng.randint(1, 3)
            lits = [i for v in range(1, nv + 1) for i in (v, -v)]
            phi = CnfFormula(
                nv,
                tuple(
                    tuple(rng.choice(lits) for _ in range(3))
                    for _ in range(rng.randint(1, 4))
                ),
            )
            want = any(
                all(
                    any(
                        (lit > 0 and (a >> (lit - 1)) & 1)
                        or (lit < 0 and not (a >> (-lit - 1)) & 1)
                        for lit in clause
                    )
                    for clause in phi.clauses
                )
                for a in range(1 << nv)
            )
            assert decide_3sat(phi) == want
