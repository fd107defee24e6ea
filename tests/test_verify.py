import argparse
import hashlib
import types

import pytest

import internally_disjoint_r5
import oracles
from genconn import cli, io, reductions, solver
from genconn.graphs import Graph, GraphError, ReductionOutput, SteinerTree
from genconn.solver import GuardError, decide_3sat, decide_lambda_set, lambda_set
from genconn.reductions import reduce_3sat_to_lambda2
from genconn.verify import (
    DEFAULT_BUDGETS,
    REDUCTION_NAMES,
    REDUCTIONS,
    VerifyBudget,
    _subsets,
    gen_3dm,
    gen_balanced_tripartite,
    gen_cnf,
    gen_connected_graphs,
    verify_packing_result,
    verify_reduction,
)

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


class TestGenerators:
    def test_connected_counts(self):
        graphs = list(gen_connected_graphs(4))
        by_n = {}
        for g in graphs:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {1: 1, 2: 1, 3: 4, 4: 38}

    def test_connected_guard(self):
        with pytest.raises(GuardError):
            list(gen_connected_graphs(7))

    def test_3dm_counts(self):
        insts = list(gen_3dm(2))
        by_n = {}
        for inst in insts:
            by_n[inst.n] = by_n.get(inst.n, 0) + 1
        assert by_n == {1: 2, 2: 256}

    def test_3dm_m_filter(self):
        insts = [i for i in gen_3dm(2, 1) if i.n == 2]
        assert len(insts) == 1 + 8

    def test_3dm_guard(self):
        with pytest.raises(GuardError):
            list(gen_3dm(3))

    def test_cnf_exhaustive_counts(self):
        insts = list(gen_cnf(2, 2))
        by_shape = {}
        for phi in insts:
            key = (phi.num_vars, phi.num_clauses)
            by_shape[key] = by_shape.get(key, 0) + 1
        # multisets: 4 clauses over one variable, 20 over two
        assert by_shape == {(1, 1): 4, (1, 2): 10, (2, 1): 20, (2, 2): 210}

    def test_cnf_random_is_seeded(self):
        a = list(gen_cnf(3, 3, seed=9, samples=10))
        b = list(gen_cnf(3, 3, seed=9, samples=10))
        assert a == b
        c = list(gen_cnf(3, 3, seed=10, samples=10))
        assert a != c

    def test_tripartite_counts(self):
        assert sum(1 for _ in gen_balanced_tripartite(1)) == 8
        assert sum(1 for _ in gen_balanced_tripartite(2)) == 4096

    def test_subsets_by_ascending_mask(self):
        for k in range(16):
            items = [chr(97 + i) for i in range(k)]
            want = [
                tuple(x for i, x in enumerate(items) if (mask >> i) & 1)
                for mask in range(1 << k)
            ]
            assert list(_subsets(items)) == want, k

    def test_subsets_is_lazy(self):
        assert isinstance(_subsets(list(range(40))), types.GeneratorType)

    @pytest.mark.parametrize("gen, count, digest", [
        (lambda: gen_connected_graphs(5), 772,
         "dc09a7192a7b7912e5f48b7500905e83380fcb6308f74c61605c9a3e5d3a46dd"),
        (lambda: gen_balanced_tripartite(2), 4096,
         "c64e96146ae4893f4dee6ddf5fa97f29fc016795fd4b330b5a379cc3c3dd5b63"),
        (lambda: gen_3dm(2, 3), 95,
         "b9185790e7a2b3ff3c90852aa1d2ec93f291c45100145e95a96cdb2c1012ef74"),
    ], ids=["connected-5", "tripartite-2", "3dm-2-3"])
    def test_sequences_pinned(self, gen, count, digest):
        # sha256 over the repr of each record, in generation order
        h = hashlib.sha256()
        n = 0
        for x in gen():
            h.update(repr(x).encode())
            n += 1
        assert (n, h.hexdigest()) == (count, digest)

    @pytest.mark.parametrize("q", [0, 3])
    def test_tripartite_guard(self, q):
        # q = 3 has 27 edge slots, 2^27 graphs; the guard fires before the first graph
        with pytest.raises(GuardError):
            next(gen_balanced_tripartite(q))


class TestVerifyReduction:
    def test_unknown_name(self):
        with pytest.raises(GraphError, match="unknown reduction"):
            verify_reduction("R9")

    def test_r1_default_passes(self):
        report = verify_reduction("R1")
        assert report.passed
        assert report.instances_checked == 2 + 93  # n=1 exhaustive, n=2 m<=3
        assert report.summary_line(with_time=False) == "PASS R1 95 0"

    def test_r4_deterministic_reports(self):
        budget = VerifyBudget(max_n=3, ks=(4,), ls=(2,))
        a = verify_reduction("R4", budget)
        b = verify_reduction("R4", budget)
        assert a.canonical_text() == b.canonical_text()

    def test_r3_small_budget(self):
        report = verify_reduction("R3", VerifyBudget(max_n=3, max_terminals=3))
        assert report.passed
        # 1 graph with n=2 (1 set) + 4 graphs with n=3 (4 sets each)
        assert report.instances_checked == 1 + 16

    def test_r5_reports_known_degenerate_failures(self, monkeypatch):
        # the internally-disjoint formula graph packs two edge-disjoint
        # trees for every formula with two or more variables, so it fails
        # on every such unsatisfiable formula; the harness must surface
        # those and nothing else
        internally_disjoint_r5.install(monkeypatch)
        report = verify_reduction("R5", VerifyBudget(max_n=2, max_m=2, samples=0))
        assert not report.passed
        for f in report.failures:
            assert f.kind == "equivalence"
            assert f.lhs == "False" and f.rhs == "True"
        assert "FAIL R5" in report.text()
        assert report.summary_line(with_time=False) == "FAIL R5 244 2"
        assert hashlib.sha256(report.canonical_text().encode()).hexdigest() == (
            "d757ce5e09a81c92fd3c4d1ba06825a95357d92b96efed135547310d85e9099e"
        )

    def test_r5_clean_formulas_pass(self):
        checked = 0
        for phi in gen_cnf(3, 3, seed=0, samples=200):
            occurring = {abs(lit) for c in phi.clauses for lit in c}
            taut = any(
                len({abs(lit) for lit in c}) != len({lit for lit in c}) and
                any(-lit in c for lit in c)
                for c in phi.clauses
            )
            if occurring != set(range(1, phi.num_vars + 1)) or taut:
                continue
            checked += 1
            out = reduce_3sat_to_lambda2(phi)
            assert decide_3sat(phi) == decide_lambda_set(out.graph, out.terminals, 2)
        assert checked > 100

    def test_failure_instances_are_replayable(self, monkeypatch):
        from genconn.io import parse_cnf

        internally_disjoint_r5.install(monkeypatch)
        report = verify_reduction("R5", VerifyBudget(max_n=2, max_m=2, samples=0))
        assert report.failures
        for f in report.failures:
            phi = parse_cnf(f.instance)
            out = internally_disjoint_r5.build(phi)
            assert decide_3sat(phi) != decide_lambda_set(out.graph, out.terminals, 2)
            # independent confirmation: the packing genuinely exists
            trees = [t.edges for t in lambda_set(out.graph, out.terminals).witness]
            assert len(trees) >= 2
            assert oracles.is_edge_packing(out.graph, out.terminals, trees)

    def test_only_a_failure_is_serialized(self, monkeypatch):
        # a source decider that disagrees on the path 0-1-2 alone: that
        # instance, and no other, is serialized, through the io attribute
        row = REDUCTIONS["R4"]
        path = Graph(3, ((0, 1), (1, 2)))

        def source(g, s, l, k):
            return row.source(g, s, l, k) != (g == path)

        monkeypatch.setitem(REDUCTIONS, "R4", row._replace(source=source))
        serialize = io.serialize_graph
        calls = []

        def counted(*args):
            calls.append(args)
            return serialize(*args)

        monkeypatch.setattr(io, "serialize_graph", counted)
        report = verify_reduction("R4", VerifyBudget(max_n=3, ks=(4,), ls=(2,)))
        assert report.instances_checked == 4
        assert [f.kind for f in report.failures] == ["equivalence"]
        assert report.failures[0].instance == (
            serialize(path, (0, 1, 2)) + "# params k=4 l=2\n"
        )
        assert calls == [(path, (0, 1, 2))]

    def test_default_budgets_cover_all_reductions(self):
        assert set(DEFAULT_BUDGETS) == {"R1", "R2", "R3", "R4", "R5", "R6"}

    @pytest.mark.parametrize("budget, line", [
        (DEFAULT_BUDGETS["R1"], "max_n=2 max_m=3 seed=0"),
        (VerifyBudget(max_n=3, ks=(4, 5), ls=(2,)), "max_n=3 ks=4,5 ls=2 seed=0"),
        (VerifyBudget(max_n=4, max_terminals=3, seed=7), "max_n=4 max_terminals=3 seed=7"),
    ])
    def test_budget_describe(self, budget, line):
        # a report's "budget:" line: the fields off their defaults, and the seed
        assert budget.describe() == line

    @pytest.mark.parametrize("name, budget", [
        ("R4", VerifyBudget(max_n=4)),
        ("R4", VerifyBudget(max_n=4, ks=(4,))),
        ("R4", VerifyBudget(max_n=4, ls=(2,))),
        ("R6", VerifyBudget(max_n=4)),
    ])
    def test_empty_needed_budget_field_raises(self, name, budget):
        # an empty ks or ls loop would check nothing and report PASS
        with pytest.raises(GraphError, match="empty budget"):
            verify_reduction(name, budget)

    def test_r2_beyond_guard_raises_before_checking(self):
        with pytest.raises(GuardError):
            verify_reduction("R2", VerifyBudget(max_n=3))
        with pytest.raises(GuardError):
            verify_reduction("R2", VerifyBudget(max_n=0))

    def test_r3_size_checked_before_solving(self, monkeypatch):
        # a line-graph builder that drops one edge breaks |E'|; neither
        # packing is computed for an instance that fails its size identity
        build = reductions.reduce_lambda_to_kappa

        def missing_edge(g, s):
            out = build(g, s)
            return ReductionOutput(Graph(out.graph.n, out.graph.edges[:-1]),
                                   out.terminals, out.threshold, out.gadget_map)

        def unreachable(*args):
            raise AssertionError("solved an instance that failed its size identity")

        monkeypatch.setattr(reductions, "reduce_lambda_to_kappa", missing_edge)
        monkeypatch.setattr(solver, "lambda_set", unreachable)
        monkeypatch.setattr(solver, "kappa_set", unreachable)
        report = verify_reduction("R3", VerifyBudget(max_n=3, max_terminals=3))
        assert report.instances_checked == 17
        assert len(report.failures) == 17
        assert {f.kind for f in report.failures} == {"size"}
        assert report.failures[0].lhs == "V=3 E=1 terminals=(0, 1)"
        assert report.failures[0].rhs == "V=3 E=2 terminals=(0, 1)"


class TestWitnessCheck:
    """``verify_packing_result`` and the R3 witness check reject what is
    not a packing."""

    PATH = SteinerTree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))

    def test_accepts_a_packing(self):
        other = SteinerTree((0, 1, 2, 3), ((0, 2), (0, 3), (1, 3)))
        res = solver.PackingResult(2, (self.PATH, other))
        assert verify_packing_result(K4, (0, 1, 2, 3), res, vertex_mode=False)

    def test_rejects_a_count_other_than_the_value(self):
        for value in (0, 2):
            res = solver.PackingResult(value, (self.PATH,))
            assert not verify_packing_result(K4, (0, 3), res, vertex_mode=False)

    def test_rejects_a_non_tree(self):
        res = solver.PackingResult(1, (SteinerTree((0, 1, 2), K3.edges),))
        assert not verify_packing_result(K3, (0, 1), res, vertex_mode=False)
        assert not verify_packing_result(K3, (0, 1), res, vertex_mode=True)

    def test_rejects_a_shared_edge(self):
        star = SteinerTree((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
        res = solver.PackingResult(2, (self.PATH, star))
        assert not verify_packing_result(K4, (0, 1, 2, 3), res, vertex_mode=False)

    def test_rejects_a_shared_non_terminal(self):
        # edge-disjoint, so a lambda packing, but both trees hold vertex 2
        via2 = SteinerTree((0, 1, 2), ((0, 2), (1, 2)))
        star3 = SteinerTree((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3)))
        res = solver.PackingResult(2, (via2, star3))
        assert verify_packing_result(K4, (0, 1), res, vertex_mode=False)
        assert not verify_packing_result(K4, (0, 1), res, vertex_mode=True)

    def test_r3_reports_invalid_witnesses(self, monkeypatch):
        # a tree that holds no terminal is no S-tree: both witnesses fail
        # on every instance, and the equal values raise no equivalence
        # failure
        bad = solver.PackingResult(1, (SteinerTree((), ()),))
        monkeypatch.setattr(solver, "lambda_set", lambda g, s: bad)
        monkeypatch.setattr(solver, "kappa_set", lambda g, s: bad)
        report = verify_reduction("R3", VerifyBudget(max_n=3, max_terminals=3))
        assert report.instances_checked == 17
        assert len(report.failures) == 2 * 17
        assert {(f.kind, f.lhs, f.rhs) for f in report.failures} == {
            ("witness", "lambda witness", "invalid"),
            ("witness", "kappa witness", "invalid"),
        }


class TestReductionTable:
    def test_names_budgets_and_kinds_are_views_of_the_table(self):
        assert REDUCTION_NAMES == tuple(REDUCTIONS) == ("R1", "R2", "R3", "R4", "R5", "R6")
        assert DEFAULT_BUDGETS == {name: row.budget for name, row in REDUCTIONS.items()}
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in sub.choices["reduce"]._actions if a.dest == "kind")
        kinds = [row.kind for row in REDUCTIONS.values()]
        assert list(kind.choices) == kinds
        assert len(set(kinds)) == 6

    @pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "R5", "R6"])
    def test_rows_name_existing_functions(self, name):
        row = REDUCTIONS[name]
        assert callable(getattr(reductions, row.build))
        assert callable(getattr(reductions, row.size))
