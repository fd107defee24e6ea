import copy
import pickle

import pytest
from hypothesis import given, strategies as st
from itertools import combinations

from genconn.graphs import (
    Graph,
    GraphError,
    SteinerTree,
    is_connected,
    line_graph,
    vertex_set,
)


def graphs(max_n: int = 8):
    """Hypothesis strategy for arbitrary labeled simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        slots = list(combinations(range(n), 2))
        picked = draw(st.sets(st.sampled_from(slots)) if slots else st.just(set()))
        return Graph(n, tuple(sorted(picked)))

    return build()


class TestGraphInvariants:
    def test_basic_construction(self):
        g = Graph.from_edges(3, [(1, 0), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.m == 2
        assert g.degree(1) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, ((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_unnormalized_pair_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((2, 1),))

    def test_part_tag_must_cover_all_vertices(self):
        with pytest.raises(GraphError, match="cover"):
            Graph(3, (), (0, 1))

    def test_part_tag_edge_within_part_rejected(self):
        with pytest.raises(GraphError, match="part"):
            Graph(2, ((0, 1),), (1, 1))

    def test_parts(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
        assert g.parts() == ((0,), (1,), (2,))


class TestStoredParts:
    """The parts are built while the tags are validated and kept off the
    fields, so they change nothing a record's value depends on."""

    @pytest.mark.parametrize("tag", [-1, 3])
    def test_invalid_tag_raises_before_indexing(self, tag):
        # -1 would index the last part
        with pytest.raises(GraphError, match=f"vertex 1 has invalid part {tag}$"):
            Graph(3, (), (0, tag, 2))

    def test_messages(self):
        g = Graph(3, ((0, 1),))
        for call in (g.parts, g.part_size):
            with pytest.raises(GraphError, match="^graph carries no tripartition$"):
                call()
        h = Graph(4, ((0, 2), (1, 3)), (0, 1, 2, 0))
        assert h.parts() == ((0, 3), (1,), (2,))
        with pytest.raises(
            GraphError, match=r"^parts have sizes \(2, 1, 1\), expected equal$"
        ):
            h.part_size()

    def test_value_does_not_depend_on_parts_being_read(self):
        def build():
            return Graph(6, ((0, 2), (1, 4), (3, 5)), (0, 0, 1, 1, 2, 2))

        read, unread = build(), build()
        assert read.parts() == ((0, 1), (2, 3), (4, 5))
        assert read.part_size() == 2
        assert read == unread and hash(read) == hash(unread)
        for g in (read, unread):
            for back in (pickle.loads(pickle.dumps(g)), copy.copy(g)):
                assert back == read and hash(back) == hash(read)
                assert back.parts() == read.parts()
        assert Graph(6, read.edges) != read

    def test_parts_are_read_only(self):
        g = Graph(3, (), (0, 1, 2))
        with pytest.raises(AttributeError):
            g._parts = ((), (), ())
        with pytest.raises(AttributeError):
            del g._parts
        assert g.parts() == ((0,), (1,), (2,))


class TestIsConnected:
    def test_single_vertex(self):
        assert is_connected(Graph(1))

    def test_empty_graph_convention(self):
        assert is_connected(Graph(0))

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(2))

    def test_path(self):
        assert is_connected(Graph(3, ((0, 1), (1, 2))))

    def test_within_nonadjacent_ends_of_p4(self):
        p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert not is_connected(p4, within=(0, 3))
        assert is_connected(p4, within=(0, 1, 2, 3))

    def test_within_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            is_connected(Graph(2), within=(0, 5))


class TestLineGraph:
    def test_p3(self):
        lg = line_graph(Graph(3, ((0, 1), (1, 2))))
        assert lg.n == 2 and lg.edges == ((0, 1),)

    def test_triangle_fixed_point(self):
        k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
        lg = line_graph(k3)
        assert (lg.n, lg.edges) == (k3.n, k3.edges)
        lg2 = line_graph(lg)
        assert (lg2.n, lg2.edges) == (k3.n, k3.edges)

    def test_star_is_triangle(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        lg = line_graph(star)
        # oracle: pairwise incidence over all edge pairs
        expect = tuple(
            (i, j)
            for i in range(3)
            for j in range(i + 1, 3)
            if set(star.edges[i]) & set(star.edges[j])
        )
        assert lg.edges == expect
        assert lg.m == 3

    def test_empty(self):
        lg = line_graph(Graph(4))
        assert lg.n == 0 and lg.m == 0

    @given(graphs())
    def test_size_identities(self, g):
        lg = line_graph(g)
        assert lg.n == g.m
        assert lg.m == sum(
            g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n)
        )


class TestSteinerTreeType:
    def test_from_masks(self):
        g = Graph(3, ((0, 1), (1, 2)))
        t = SteinerTree.from_masks(g, 0b111, 0b11)
        assert t.vertices == (0, 1, 2)
        assert t.edges == ((0, 1), (1, 2))
        assert t.vertex_mask == 0b111


def test_vertex_set_normalizes():
    assert vertex_set([2, 0, 2, 1]) == (0, 1, 2)


class TestInstanceTypes:
    def test_3dm_duplicate_triple_rejected(self):
        from genconn.graphs import ThreeDMInstance

        with pytest.raises(GraphError, match="duplicate"):
            ThreeDMInstance(1, ((0, 0, 0), (0, 0, 0)))

    def test_3dm_range(self):
        from genconn.graphs import ThreeDMInstance

        with pytest.raises(GraphError, match="out of range"):
            ThreeDMInstance(1, ((0, 1, 0),))

    def test_cnf_duplicate_literals_permitted(self):
        from genconn.graphs import CnfFormula

        phi = CnfFormula(1, ((1, 1, -1),))
        assert phi.num_clauses == 1

    def test_cnf_literal_range(self):
        from genconn.graphs import CnfFormula

        with pytest.raises(GraphError, match="out of range"):
            CnfFormula(1, ((1, 2, 1),))

    def test_reduction_output_roles_injective(self):
        from genconn.graphs import ReductionOutput

        with pytest.raises(GraphError, match="injective"):
            ReductionOutput(Graph(2), (), None, {0: "a", 1: "a"})


def _record_pairs():
    """(type, a, b) for each of the ten record types: two valid argument
    tuples whose every field differs, so that any one field of ``a`` may
    be swapped for ``b``'s and the arguments stay valid."""
    from genconn.graphs import CnfFormula, ReductionOutput, ThreeDMInstance
    from genconn.solver import PackingResult
    from genconn.verify import (
        REDUCTIONS,
        Failure,
        Reduction,
        VerificationReport,
        VerifyBudget,
    )

    path = Graph(3, ((0, 1), (1, 2)))
    tree = SteinerTree((0, 1), ((0, 1),))
    failure = Failure("size", "graph 1 0\n", "1", "2")
    row = REDUCTIONS["R4"]
    return [
        (Graph, (3, ((0, 1), (1, 2)), None), (4, ((0, 1),), (0, 1, 0))),
        (ThreeDMInstance, (1, ((0, 0, 0),)), (2, ())),
        (CnfFormula, (2, ((1, -2, 2),)), (3, ())),
        (ReductionOutput, (path, (0, 2), 1, {0: "a"}), (Graph(4), (1,), None, {})),
        (SteinerTree, ((0, 1), ((0, 1),)), ((0, 1, 2), ((0, 1), (1, 2)))),
        (PackingResult, (1, (tree,)), (0, ())),
        (VerifyBudget, (2, 3, 4, (4,), (2,), 5, 6), (1, None, None, (), (), 0, 0)),
        (Failure, tuple(failure), ("witness", "graph 2 0\n", "3", "4")),
        (VerificationReport, ("R1", VerifyBudget(2), 3, (failure,), 0.5),
         ("R2", VerifyBudget(1), 0, (), 0.25)),
        (Reduction, tuple(row),
         ("R0", "none", VerifyBudget(1), iter, "build", "size", len, repr, "text",
          (), "q", (), print)),
    ]


@pytest.mark.parametrize("cls, a, b", _record_pairs(), ids=lambda x: getattr(x, "__name__", ""))
class TestRecordSemantics:
    """Every record type is an immutable value: the validated graph and
    instance types as slotted classes, the others as named tuples."""

    def test_equality_and_hash(self, cls, a, b):
        x, y = cls(*a), cls(*a)
        assert x == y and not (x != y)
        assert hash(x) == hash(y)
        for i in range(len(a)):
            changed = a[:i] + (b[i],) + a[i + 1:]
            assert cls(*changed) != x, cls._fields[i]

    def test_fields_are_read_only(self, cls, a, b):
        x = cls(*a)
        for name, value in zip(cls._fields, a):
            if name == "gadget_map":  # stored as a read-only copy
                assert getattr(x, name) == value
            else:
                assert getattr(x, name) is value
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert tuple(getattr(x, name) for name in cls._fields) == a

    def test_keyword_construction(self, cls, a, b):
        assert cls(**dict(zip(cls._fields, a))) == cls(*a)

    def test_validated_types_are_slotted_values(self, cls, a, b):
        x = cls(*a)
        if cls.__module__ != "genconn.graphs" or cls is SteinerTree:
            assert isinstance(x, tuple)
            return
        assert not isinstance(x, tuple)
        assert not hasattr(x, "_make") and not hasattr(x, "_replace")
        body = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, a))
        assert repr(x) == f"{cls.__name__}({body})"
        assert copy.copy(x) == x == pickle.loads(pickle.dumps(x))


class TestSequenceFields:
    def test_lists_are_stored_as_tuples(self):
        from genconn.graphs import CnfFormula, ReductionOutput, ThreeDMInstance

        path = Graph(3, ((0, 1), (1, 2)))
        for cls, listed, tupled in [
            (Graph, (3, [(0, 1), (1, 2)], [0, 1, 0]), (3, ((0, 1), (1, 2)), (0, 1, 0))),
            (ThreeDMInstance, (2, [(0, 1, 1)]), (2, ((0, 1, 1),))),
            (CnfFormula, (2, [(1, -2, 2)]), (2, ((1, -2, 2),))),
            (ReductionOutput, (path, [0, 2]), (path, (0, 2))),
        ]:
            x, y = cls(*listed), cls(*tupled)
            for name in cls._fields:
                assert type(getattr(x, name)) is type(getattr(y, name)), (cls, name)
            assert x == y
            assert hash(x) == hash(y)


class TestRecordDefaults:
    def test_defaults(self):
        from genconn.graphs import CnfFormula, ReductionOutput, ThreeDMInstance
        from genconn.verify import REDUCTIONS, Reduction, VerifyBudget

        g = Graph(2)
        assert (g.edges, g.part_tag) == ((), None)
        assert ThreeDMInstance(2).triples == () and CnfFormula(2).clauses == ()
        out = ReductionOutput(g)
        assert (out.terminals, out.threshold, out.gadget_map) == ((), None, {})
        assert ReductionOutput(g).gadget_map is not out.gadget_map
        assert VerifyBudget(max_n=2) == VerifyBudget(2, None, None, (), (), 0, 0)
        row = REDUCTIONS["R1"]
        short = Reduction(*tuple(row)[:9])
        assert (short.flags, short.label, short.needs, short.check) == ((), "l", (), None)

    def test_gadget_map_is_a_read_only_copy(self):
        from genconn.graphs import ReductionOutput

        roles = {0: "u0", 1: "u1"}
        out = ReductionOutput(Graph(2), (0, 1), 2, roles)
        for change in (
            lambda m: m.__setitem__(0, "x"),
            lambda m: m.__delitem__(0),
            lambda m: m.update({2: "u2"}),
            lambda m: m.pop(0),
            lambda m: m.popitem(),
            lambda m: m.setdefault(2, "u2"),
            lambda m: m.clear(),
        ):
            with pytest.raises(TypeError):
                change(out.gadget_map)
        with pytest.raises(TypeError):
            out.gadget_map[0] = "x"
        roles[0] = "x"
        assert out.gadget_map == {0: "u0", 1: "u1"}
        same = ReductionOutput(Graph(2), (0, 1), 2, {1: "u1", 0: "u0"})
        assert same == out and hash(same) == hash(out)
        assert {out: 1}[same] == 1

    def test_as_the_benchmark_builds_them(self):
        from genconn.solver import PackingResult

        tree = SteinerTree(tuple([0, 1]), tuple(sorted([(0, 1)])))
        result = PackingResult(1, (tree,))
        assert (result.value, result.witness[0].edges) == (1, ((0, 1),))

    def test_edge_set_is_cached(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.edge_set == {(0, 1), (1, 2)}
        assert g.edge_set is g.edge_set
        assert g == Graph(3, ((0, 1), (1, 2)))
