import pytest
from hypothesis import given, strategies as st

from arcelim import (
    CountMismatch,
    DuplicateArc,
    EdgeListSyntaxError,
    Graph,
    GraphError,
    TargetOutOfRange,
    parse_edge_list,
    sample9,
    serialize_edge_list,
)


def adjacency_lists(max_n=8):
    """Valid adjacency input: per-source distinct targets within range."""

    def lists_for(n):
        per_vertex = st.lists(
            st.integers(0, n - 1), max_size=n, unique=True
        )
        return st.lists(per_vertex, min_size=n, max_size=n)

    return st.integers(1, max_n).flatmap(lists_for)


class TestFromAdjacency:
    def test_single_vertex_no_arcs(self):
        g = Graph.from_adjacency([[]])
        assert g.num_vertices == 1
        assert g.num_arcs == 0

    def test_sample_counts(self):
        g = sample9()
        assert g.num_vertices == 9
        assert g.num_arcs == 24

    def test_duplicate_arc_rejected(self):
        with pytest.raises(DuplicateArc) as exc:
            Graph.from_adjacency([[1, 1]])
        assert (exc.value.source, exc.value.target) == (0, 1)

    def test_duplicate_not_adjacent_in_list(self):
        with pytest.raises(DuplicateArc):
            Graph.from_adjacency([[1, 0, 1]])

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange) as exc:
            Graph.from_adjacency([[0], [2]])
        assert exc.value.source == 1
        assert exc.value.target == 2

    def test_negative_target_rejected(self):
        with pytest.raises(TargetOutOfRange):
            Graph.from_adjacency([[-1]])

    def test_self_loop_allowed_once(self):
        g = Graph.from_adjacency([[0]])
        assert g.num_arcs == 1
        with pytest.raises(DuplicateArc):
            Graph.from_adjacency([[0, 0]])

    @given(adjacency_lists())
    def test_order_preserved(self, lists):
        g = Graph.from_adjacency(lists)
        assert [list(g.targets(u)) for u in range(g.num_vertices)] == lists
        assert g.num_arcs == sum(len(row) for row in lists)

    @given(st.lists(st.lists(st.integers(-2, 9), max_size=6), min_size=0, max_size=6))
    def test_validation_total(self, lists):
        """Arbitrary input either becomes a valid Graph or a typed error."""
        try:
            g = Graph.from_adjacency(lists)
        except GraphError:
            return
        for u in range(g.num_vertices):
            row = g.targets(u)
            assert len(set(row)) == len(row)
            assert all(0 <= t < g.num_vertices for t in row)


class TestOutdegree:
    def test_sample_degrees(self):
        g = sample9()
        assert g.outdegree(0) == 4
        assert g.outdegree(6) == 0

    def test_single_vertex(self):
        assert Graph.from_adjacency([[]]).outdegree(0) == 0


class TestParseEdgeList:
    def test_minimal(self):
        g = parse_edge_list("2 1\n0 1\n")
        assert [list(g.targets(u)) for u in range(2)] == [[1], []]

    def test_adjacency_order_is_appearance_order(self):
        g = parse_edge_list("3 3\n0 1\n0 2\n1 2\n")
        assert [list(g.targets(u)) for u in range(3)] == [[1, 2], [2], []]
        g = parse_edge_list("3 3\n0 2\n1 2\n0 1\n")
        assert list(g.targets(0)) == [2, 1]

    def test_duplicate_arc_in_file(self):
        with pytest.raises(DuplicateArc):
            parse_edge_list("2 2\n0 1\n0 1\n")

    def test_comments_blanks_crlf_trailing_ws(self):
        text = "# a graph\r\n2 1 \r\n\r\n# arc next\n0 1\t\n"
        g = parse_edge_list(text)
        assert list(g.targets(0)) == [1]

    def test_count_mismatch_too_few(self):
        with pytest.raises(CountMismatch) as exc:
            parse_edge_list("3 2\n0 1\n")
        assert (exc.value.declared, exc.value.seen) == (2, 1)

    def test_count_mismatch_too_many(self):
        with pytest.raises(CountMismatch) as exc:
            parse_edge_list("3 1\n0 1\n1 2\n2 0\n")
        assert (exc.value.declared, exc.value.seen) == (1, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "2\n",
            "x y\n",
            "-1 0\n",
            "2 1\n0\n",
            "2 1\n0 one\n",
            "2 1\n5 1\n",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list(text)

    def test_rejected_arcs_carry_line_numbers(self):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("3 3\n0 1\n# c\n0 2\n0 1\n")
        assert isinstance(exc.value, DuplicateArc)
        assert exc.value.line_no == 5
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("3 3\n1 0\n0 1\n1 -4\n")
        assert isinstance(exc.value, TargetOutOfRange)
        assert (exc.value.line_no, exc.value.slot) == (4, 1)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(EdgeListSyntaxError) as exc:
            parse_edge_list("# header below\n2 1\n0 1 9\n")
        assert exc.value.line_no == 3


class TestSerialize:
    def test_golden_path4(self):
        from arcelim import path

        assert serialize_edge_list(path(4)) == "4 3\n0 1\n1 2\n2 3\n"

    @given(adjacency_lists())
    def test_round_trip(self, lists):
        g = Graph.from_adjacency(lists)
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_round_trip_sample(self):
        g = sample9()
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestGraphObject:
    def test_equality_and_hash(self):
        a = Graph.from_adjacency([[1], []])
        b = parse_edge_list("2 1\n0 1\n")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph.from_adjacency([[], []])

    def test_arcs_iteration(self):
        g = Graph.from_adjacency([[2, 1], [], [0]])
        assert list(g.arcs()) == [(0, 2), (0, 1), (2, 0)]
