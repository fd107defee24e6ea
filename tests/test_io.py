import pytest
from hypothesis import given

from genconn.graphs import CnfFormula, Graph, ThreeDMInstance
from genconn.io import (
    FormatError,
    parse_3dm,
    parse_cnf,
    parse_graph,
    parse_graph_and_set,
    serialize_3dm,
    serialize_cnf,
    serialize_graph,
)
from test_graphs import graphs


class TestParseGraph:
    def test_smallest(self):
        assert parse_graph("graph 2 1\ne 0 1\n") == Graph(2, ((0, 1),))

    def test_empty_edge_set(self):
        assert parse_graph("graph 3 0\n") == Graph(3)

    def test_duplicate_edge_names_line(self):
        with pytest.raises(FormatError, match="line 4.*duplicate"):
            parse_graph("graph 3 2\ne 0 1\ne 1 2\ne 0 1\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="line 1.*header"):
            parse_graph("grph 2 1\n")

    def test_index_out_of_range(self):
        with pytest.raises(FormatError, match="line 2.*out of range"):
            parse_graph("graph 2 1\ne 0 2\n")

    def test_self_loop(self):
        with pytest.raises(FormatError, match="line 2.*self-loop"):
            parse_graph("graph 2 1\ne 1 1\n")

    def test_unordered_edge_rejected(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_graph("graph 2 1\ne 1 0\n")

    def test_incomplete_tripartition(self):
        with pytest.raises(FormatError, match="line 2.*tripartition"):
            parse_graph("graph 3 0\nparts 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="declares 2"):
            parse_graph("graph 3 2\ne 0 1\n")

    def test_comments_and_blanks_skipped(self):
        g = parse_graph("# generated\n\ngraph 2 1\ne 0 1\n# role 0 a\n")
        assert g == Graph(2, ((0, 1),))

    def test_parts_and_set(self):
        g, s = parse_graph_and_set(
            "graph 3 1\ne 0 1\nparts 0 1 2\nset 2 2 0\n"
        )
        assert g.part_tag == (0, 1, 2)
        assert s == (0, 2)

    def test_set_out_of_range(self):
        with pytest.raises(FormatError, match="line 2.*set"):
            parse_graph("graph 2 0\nset 1 5\n")

    def test_second_set_line_names_its_line(self):
        with pytest.raises(FormatError, match="line 7: second set line"):
            parse_graph_and_set(
                "graph 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\nset 2 0 2\nset 2 1 3\n"
            )

    def test_second_parts_line_names_its_line(self):
        with pytest.raises(FormatError, match="line 4: second parts line"):
            parse_graph("graph 3 1\ne 0 1\nparts 0 1 2\nparts 2 1 0\n")

    def test_one_parts_and_one_set_in_either_order(self):
        g, s = parse_graph_and_set("graph 3 1\ne 0 1\nset 2 2 0\nparts 0 1 2\n")
        assert (g.part_tag, s) == ((0, 1, 2), (0, 2))

    def test_preserves_edge_order(self):
        g = parse_graph("graph 3 2\ne 1 2\ne 0 1\n")
        assert g.edges == ((1, 2), (0, 1))


class TestRoundTrip:
    @given(graphs())
    def test_parse_serialize_identity_on_canonical_form(self, g):
        canonical = Graph(g.n, tuple(sorted(g.edges)), g.part_tag)
        text = serialize_graph(canonical)
        assert parse_graph(text) == canonical
        assert serialize_graph(parse_graph(text)) == text

    def test_serialize_with_set_and_roles(self):
        text = serialize_graph(Graph(3, ((0, 1),)), terminals=(2, 0), roles={2: "a"})
        assert text == "graph 3 1\ne 0 1\nset 2 0 2\n# role 2 a\n"
        g, s = parse_graph_and_set(text)
        assert s == (0, 2)


class TestThreeDM:
    def test_roundtrip(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 0, 1)))
        assert parse_3dm(serialize_3dm(inst)) == inst

    def test_counts_must_match(self):
        with pytest.raises(FormatError, match="declares 2"):
            parse_3dm("3dm 1 2\nt 0 0 0\n")

    def test_range_check(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_3dm("3dm 1 1\nt 0 0 1\n")


class TestCnf:
    def test_roundtrip(self):
        phi = CnfFormula(3, ((1, -2, 3), (-1, -1, 2)))
        assert parse_cnf(serialize_cnf(phi)) == phi

    def test_dimacs_comments(self):
        phi = parse_cnf("c comment\np cnf 1 1\n1 1 1 0\n")
        assert phi == CnfFormula(1, ((1, 1, 1),))

    def test_requires_three_literals(self):
        with pytest.raises(FormatError, match="three literals"):
            parse_cnf("p cnf 2 1\n1 2 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_cnf("p cnf 1 1\n1 2 1 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(FormatError, match="p cnf"):
            parse_cnf("1 1 1 0\n")
