from itertools import combinations

import pytest

from genconn import reductions
from genconn.graphs import CnfFormula, Graph, GraphError, ThreeDMInstance
from genconn.reductions import (
    reduce_3dm_to_p1,
    reduce_3dm_to_p1_with_roles,
    reduce_3sat_to_lambda2,
    reduce_lambda2_to_lambdal,
    reduce_lambda3_to_lambdak,
    reduce_lambda_to_kappa,
    reduce_p1_to_kappa,
)
from genconn.solver import (
    decide_3dm,
    decide_kappa_set,
    decide_lambda_set,
    decide_problem1,
    kappa_set,
    lambda_set,
    solve_problem1,
)
from genconn.trees import internally_disjoint, is_steiner_tree
from genconn.graphs import SteinerTree, line_graph

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
P3 = Graph(3, ((0, 1), (1, 2)))
K4 = Graph(4, tuple(combinations(range(4), 2)))


class TestMatchingToPartition:
    def test_counting_n1_m1(self):
        g, q = reduce_3dm_to_p1(ThreeDMInstance(1, ((0, 0, 0),)))
        assert (g.n, g.m, q) == (21, 26, 7)
        assert tuple(len(p) for p in g.parts()) == (7, 7, 7)

    def test_counting_n2_m3(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1), (1, 1, 0)))
        g, q = reduce_3dm_to_p1(inst)
        assert (g.n, g.m, q) == (60, 78, 20)

    def test_equivalence_examples(self):
        yes = ThreeDMInstance(1, ((0, 0, 0),))
        g, _ = reduce_3dm_to_p1(yes)
        assert decide_problem1(g) == decide_3dm(yes) is True
        no = ThreeDMInstance(1, ())
        g, _ = reduce_3dm_to_p1(no)
        assert decide_problem1(g) == decide_3dm(no) is False

    def test_roles_cover_gadget(self):
        out = reduce_3dm_to_p1_with_roles(ThreeDMInstance(1, ((0, 0, 0),)))
        assert out.gadget_map[0] == "u0"
        assert out.gadget_map[3] == "t0_1"
        assert len(out.gadget_map) == 21

    def test_requires_nonempty_ground_set(self):
        with pytest.raises(GraphError):
            reduce_3dm_to_p1(ThreeDMInstance(0, ()))

    def test_equivalence_sampled_n3(self):
        import random

        rng = random.Random(7)
        universe = [(u, v, w) for u in range(3) for v in range(3) for w in range(3)]
        for _ in range(40):
            triples = tuple(sorted(rng.sample(universe, rng.randint(0, 5))))
            inst = ThreeDMInstance(3, triples)
            g, _ = reduce_3dm_to_p1(inst)
            assert decide_problem1(g) == decide_3dm(inst), inst


class TestPartitionToKappa:
    def test_rainbow_triangle(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
        out = reduce_p1_to_kappa(g)
        assert out.graph.n == 6 and out.graph.m == 6
        assert out.terminals == (3, 4, 5) and out.threshold == 1
        assert decide_kappa_set(out.graph, out.terminals, 1)

    def test_sizes_and_degrees(self):
        from genconn.verify import gen_balanced_tripartite

        for q in (1, 2):
            for g in gen_balanced_tripartite(q):
                out = reduce_p1_to_kappa(g, q)
                assert out.graph.n == 3 * q + 3
                assert out.graph.m == g.m + 3 * q
                assert all(out.graph.degree(t) == q for t in out.terminals)

    def test_isolated_parts_unreachable(self):
        g = Graph(3, (), (0, 1, 2))
        out = reduce_p1_to_kappa(g)
        assert not decide_kappa_set(out.graph, out.terminals, 1)

    def test_unequal_parts_rejected(self):
        with pytest.raises(GraphError, match="equal"):
            reduce_p1_to_kappa(Graph(4, (), (0, 0, 1, 2)))

    def test_witness_direction(self):
        # a partition certificate lifts to q pairwise internally disjoint
        # apex trees: spanning tree of each triple plus the apex edges
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
        g, q = reduce_3dm_to_p1(inst)
        partition = solve_problem1(g)
        assert partition is not None
        out = reduce_p1_to_kappa(g, q)
        a, b, c = out.terminals
        trees = []
        for u, v, w in partition:
            inner = [
                e for e in g.edges if set(e) <= {u, v, w}
            ][: 2]
            edges = tuple(sorted(inner + [(u, a), (v, b), (w, c)]))
            vs = tuple(sorted({u, v, w, a, b, c}))
            trees.append(SteinerTree(vs, tuple((min(x, y), max(x, y)) for x, y in edges)))
        assert len(trees) == q
        for t in trees:
            assert is_steiner_tree(out.graph, out.terminals, t)
        for t1, t2 in combinations(trees, 2):
            assert internally_disjoint(t1, t2, out.terminals)


class TestLambdaToKappa:
    def test_p3(self):
        out = reduce_lambda_to_kappa(P3, (0, 2))
        assert (out.graph.n, out.graph.m) == (5, 5)
        assert out.terminals == (0, 2) and out.threshold is None
        assert kappa_set(out.graph, out.terminals).value == 1

    def test_k3(self):
        out = reduce_lambda_to_kappa(K3, (0, 1, 2))
        assert (out.graph.n, out.graph.m) == (6, 9)
        assert kappa_set(out.graph, out.terminals).value == 1

    def test_k4(self):
        out = reduce_lambda_to_kappa(K4, (0, 1, 2, 3))
        assert kappa_set(out.graph, out.terminals).value == 2
        assert lambda_set(K4, (0, 1, 2, 3)).value == 2

    def test_structure(self):
        out = reduce_lambda_to_kappa(K3, (0, 1))
        lg = line_graph(K3)
        assert out.graph.n == K3.n + K3.m
        assert out.graph.m == lg.m + 2 * K3.m
        # original vertices are never adjacent in the output
        for u, v in out.graph.edges:
            assert not (u < K3.n and v < K3.n)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            reduce_lambda_to_kappa(Graph(3, ((0, 1),)), (0, 1))

    def test_output_values_against_naive_oracle(self):
        # the augmented graphs are larger than the host family the solver
        # is oracle-checked on, so spot-check the solver's packing values
        # on them with the naive all-subsets oracle directly
        import random

        import oracles
        from genconn.verify import gen_connected_graphs

        rng = random.Random(13)
        hosts = [g for g in gen_connected_graphs(4) if g.n == 4 and g.m <= 5]
        cases = [
            (g, s) for g in hosts for s in [(0, 1), (0, 3), (0, 1, 2), (1, 2, 3)]
        ]
        for g, s in rng.sample(cases, 16):
            out = reduce_lambda_to_kappa(g, s)
            assert (
                kappa_set(out.graph, out.terminals).value
                == oracles.max_packing(out.graph, out.terminals, "vertex")
                == oracles.max_packing(g, s, "edge")
            ), (g.edges, s)


class TestTerminalExpansion:
    def test_k4_counts(self):
        out = reduce_lambda3_to_lambdak(K4, (0, 1, 2), 2, 4)
        assert out.graph.n == K4.n + 3
        assert out.graph.m == K4.m + 4
        assert len(out.terminals) == 4 and out.threshold == 2

    def test_k5_l3_counts(self):
        out = reduce_lambda3_to_lambdak(K4, (0, 1, 2), 3, 5)
        assert out.graph.n - K4.n == 8  # (k-3)(l+1)
        assert out.graph.m - K4.m == 12  # 2l(k-3)

    def test_equivalence_examples(self):
        out = reduce_lambda3_to_lambdak(K4, (0, 1, 2), 2, 4)
        assert decide_lambda_set(K4, (0, 1, 2), 2)
        assert decide_lambda_set(out.graph, out.terminals, 2)
        out = reduce_lambda3_to_lambdak(P3, (0, 1, 2), 2, 4)
        assert not decide_lambda_set(P3, (0, 1, 2), 2)
        assert not decide_lambda_set(out.graph, out.terminals, 2)

    def test_preconditions(self):
        with pytest.raises(GraphError, match="k="):
            reduce_lambda3_to_lambdak(K4, (0, 1, 2), 2, 3)
        with pytest.raises(GraphError, match="3 terminals"):
            reduce_lambda3_to_lambdak(K4, (0, 1), 2, 4)
        with pytest.raises(GraphError, match="l="):
            reduce_lambda3_to_lambdak(K4, (0, 1, 2), 1, 4)


def _fields(out):
    g = out.graph
    return (g.n, g.edges, g.part_tag, g.adjacency, g.incident,
            out.terminals, out.threshold, dict(out.gadget_map))


def _plain(value) -> bool:
    """True when ``value`` holds only tuples, ints, strs and graphs."""
    if isinstance(value, tuple):
        return all(map(_plain, value))
    return isinstance(value, (int, str, Graph))


class TestMemo:
    # R3 and R4 keep what they build from the host alone, keyed by what it
    # reads.  Each case is built in the harness's order with the memo kept,
    # then again right after emptying the memo; the two must be equal

    @staticmethod
    def _check(memo, build, cases) -> int:
        memo.cache_clear()
        kept = [_fields(build(*args)) for args in cases]
        hits = memo.cache_info().hits
        for args, fields in zip(cases, kept):
            memo.cache_clear()
            assert fields == _fields(build(*args)), args
        return hits

    def test_line_graph_memo_matches_a_fresh_build(self):
        from genconn.verify import gen_connected_graphs

        cases = [(g, s) for g in gen_connected_graphs(5)
                 for size in range(2, g.n + 1) for s in combinations(range(g.n), size)]
        hits = self._check(reductions._line_graph_augmentation, reduce_lambda_to_kappa, cases)
        assert len(cases) - hits == 1 + 4 + 38 + 728  # one build per host

    def test_hub_block_memo_matches_a_fresh_build(self):
        from genconn.verify import gen_connected_graphs

        cases = [(g, s, l, k) for g in gen_connected_graphs(4)
                 for s in combinations(range(g.n), 3) for l in (2, 3) for k in (4, 5)]
        hits = self._check(reductions._hub_block, reduce_lambda3_to_lambdak, cases)
        assert len(cases) - hits == 4 * (1 + 2)  # one per (n, min S, l, k)

    def test_disconnected_host_raises_around_a_cached_call(self):
        split = Graph(3, ((0, 1),))
        reductions._line_graph_augmentation.cache_clear()
        for _ in range(2):
            with pytest.raises(GraphError, match="connected"):
                reduce_lambda_to_kappa(split, (0, 1))
            reduce_lambda_to_kappa(P3, (0, 2))
        with pytest.raises(GraphError, match="connected"):
            reduce_lambda_to_kappa(split, (0, 1))
        # the terminal set is still checked first
        with pytest.raises(GraphError, match="at least two"):
            reduce_lambda_to_kappa(split, (0,))

    def test_memos_are_bounded(self):
        for memo in (reductions._line_graph_augmentation, reductions._hub_block):
            assert memo.cache_parameters()["maxsize"] is not None, memo

    def test_memos_hand_out_no_mutable_object(self):
        outs = [reduce_lambda_to_kappa(K4, (0, 1)), reduce_lambda_to_kappa(K4, (2, 3)),
                reduce_lambda3_to_lambdak(K4, (0, 1, 2), 2, 5),
                reduce_lambda3_to_lambdak(K4, (0, 2, 3), 2, 5)]
        assert _plain(reductions._line_graph_augmentation(K4))
        assert _plain(reductions._hub_block(4, 0, 2, 5))
        # outputs built from one memo entry each hold their own read-only
        # copy of its roles
        assert outs[0].gadget_map is not outs[1].gadget_map
        assert outs[2].gadget_map is not outs[3].gadget_map
        with pytest.raises(TypeError):
            outs[0].gadget_map[0] = "x"


class TestSatToPacking:
    def test_single_clause(self):
        out = reduce_3sat_to_lambda2(CnfFormula(1, ((1, 1, 1),)))
        assert out.graph.n == 2 + 2 * 1 + 4 * 1 + 1 == 9
        assert out.threshold == 2
        assert decide_lambda_set(out.graph, out.terminals, 2)

    def test_contradiction(self):
        out = reduce_3sat_to_lambda2(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
        assert not decide_lambda_set(out.graph, out.terminals, 2)

    def test_vertex_count_n3_m2(self):
        out = reduce_3sat_to_lambda2(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))))
        # r_i = 1 for each variable, so R = 3; N = 3 + 3
        assert out.graph.n == 2 + 2 * 2 + 4 * 3 + 6 == 24

    def test_terminals_are_selectors_and_pendants(self):
        phi = CnfFormula(2, ((1, -2, 2), (1, 1, 1)))
        out = reduce_3sat_to_lambda2(phi)
        roles = {out.gadget_map[t] for t in out.terminals}
        # x1 lies in two clauses, so its cycle has 2 * 2 terminals; x2 and
        # not-x2 lie in one each, so its cycle has 2
        assert roles == {
            "xh1_0", "xh1_1", "xh1_2", "xh1_3", "xh2_0", "xh2_1", "cp1", "cp2",
        }

    def test_requires_clause_and_variable(self):
        with pytest.raises(GraphError):
            reduce_3sat_to_lambda2(CnfFormula(1, ()))

    def test_degrees_the_proof_relies_on(self):
        # tautology, repeated literal and an unused variable x3
        out = reduce_3sat_to_lambda2(CnfFormula(3, ((1, -1, 2), (2, 2, -1))))
        for v, role in out.gadget_map.items():
            if role.startswith(("xh", "cp")):
                assert out.graph.degree(v) == 2, role
            elif role.startswith(("x", "w")):
                assert out.graph.degree(v) == 3, role

    def test_unsatisfiable_formulas_refuted(self):
        # each packs two edge-disjoint trees in the internally-disjoint
        # formula graph that R5 used to build
        for phi in (
            CnfFormula(2, ((1, 1, 1), (-1, -1, -1))),
            CnfFormula(3, ((-1, 2, -1), (-1, -1, -1), (1, 1, 1))),
            CnfFormula(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))),
        ):
            out = reduce_3sat_to_lambda2(phi)
            assert not decide_lambda_set(out.graph, out.terminals, 2), phi


class TestThresholdExpansion:
    def test_counts(self):
        out = reduce_lambda2_to_lambdal(K4, (0, 1), 3)
        k = 2
        assert out.graph.n - K4.n == 3 * k + 1  # 3k + (l-2)
        assert out.graph.m - K4.m == 4 * k + k * 1  # 4k + k(l-2)
        assert all(out.graph.degree(p) == 3 for p in out.terminals)

    def test_equivalence_examples(self):
        out = reduce_lambda2_to_lambdal(K4, (0, 1), 3)
        assert decide_lambda_set(K4, (0, 1), 2)
        assert decide_lambda_set(out.graph, out.terminals, 3)
        out = reduce_lambda2_to_lambdal(P3, (0, 2), 3)
        assert not decide_lambda_set(P3, (0, 2), 2)
        assert not decide_lambda_set(out.graph, out.terminals, 3)

    def test_threshold_guard(self):
        with pytest.raises(GraphError, match="l="):
            reduce_lambda2_to_lambdal(P3, (0, 2), 2)
