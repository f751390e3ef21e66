import gc
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from arcelim import (
    CountMismatch,
    DuplicateArc,
    EdgeListSyntaxError,
    Graph,
    GraphError,
    TargetNotInteger,
    TargetOutOfRange,
    gnm,
    parse_edge_list,
    sample9,
    serialize_edge_list,
)


EXTREME_INTS = [2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**40, -2**40]


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
        g = Graph([[]])
        assert g.num_vertices == 1
        assert g.num_arcs == 0

    def test_sample_counts(self):
        g = sample9()
        assert g.num_vertices == 9
        assert g.num_arcs == 24

    def test_duplicate_arc_rejected(self):
        with pytest.raises(DuplicateArc) as exc:
            Graph([[1, 1]])
        assert (exc.value.source, exc.value.target) == (0, 1)

    def test_duplicate_not_adjacent_in_list(self):
        with pytest.raises(DuplicateArc):
            Graph([[1, 0, 1]])

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange) as exc:
            Graph([[0], [2]])
        assert exc.value.source == 1
        assert exc.value.target == 2

    @pytest.mark.parametrize("target", EXTREME_INTS)
    def test_target_beyond_32_bits_out_of_range(self, target):
        with pytest.raises(TargetOutOfRange) as exc:
            Graph([[0], [1, target]])
        assert (exc.value.source, exc.value.slot, exc.value.target) == (1, 1, target)

    def test_negative_target_rejected(self):
        with pytest.raises(TargetOutOfRange):
            Graph([[-1]])

    def test_self_loop_allowed_once(self):
        g = Graph([[0]])
        assert g.num_arcs == 1
        with pytest.raises(DuplicateArc):
            Graph([[0, 0]])

    @given(adjacency_lists())
    def test_order_preserved(self, lists):
        g = Graph(lists)
        assert [list(g.out_lists[u]) for u in range(g.num_vertices)] == lists
        assert [g.tgt[g.off[u]:g.off[u + 1]].tolist() for u in range(g.num_vertices)] == lists
        assert len(g.off) == g.num_vertices + 1
        assert g.num_arcs == sum(len(row) for row in lists)

    @pytest.mark.parametrize("lists, source, slot, target", [
        ([[1.0], []], 0, 0, 1.0),
        ([[1], [0, "1"]], 1, 1, "1"),
        ([[1, None, 1], []], 0, 1, None),  # reported before the repeated 1
    ])
    def test_non_integer_target_rejected(self, lists, source, slot, target):
        with pytest.raises(TargetNotInteger) as exc:
            Graph(lists)
        assert (exc.value.source, exc.value.slot, exc.value.target) == (source, slot, target)

    def test_out_lists_hold_the_callers_int_objects(self):
        # ints above 256 are not cached, so each of these is its own object
        lists = [[int("1000"), int("1001")], [0]] + [[] for _ in range(1000)]
        g = Graph(lists)
        assert all(t is s for ts, row in zip(g.out_lists, lists) for t, s in zip(ts, row))

    @given(st.lists(st.lists(st.integers(-2, 9) | st.sampled_from(EXTREME_INTS), max_size=6),
                    min_size=0, max_size=6))
    def test_validation_total(self, lists):
        """Arbitrary input either becomes a valid Graph or a typed error."""
        try:
            g = Graph(lists)
        except GraphError as err:
            # the constructor is the same check: same type, same fields
            with pytest.raises(type(err)) as exc:
                Graph(lists)
            assert vars(exc.value) == vars(err)
            assert str(exc.value) == str(err)
            return
        for u in range(g.num_vertices):
            row = g.out_lists[u]
            assert len(set(row)) == len(row)
            assert all(0 <= t < g.num_vertices for t in row)
        assert Graph(lists) == g


class TestOutdegree:
    def test_sample_degrees(self):
        g = sample9()
        assert len(g.out_lists[0]) == 4
        assert len(g.out_lists[6]) == 0

    def test_single_vertex(self):
        assert len(Graph([[]]).out_lists[0]) == 0


class TestParseEdgeList:
    def test_minimal(self):
        g = parse_edge_list("2 1\n0 1\n")
        assert [list(g.out_lists[u]) for u in range(2)] == [[1], []]

    def test_adjacency_order_is_appearance_order(self):
        g = parse_edge_list("3 3\n0 1\n0 2\n1 2\n")
        assert [list(g.out_lists[u]) for u in range(3)] == [[1, 2], [2], []]
        g = parse_edge_list("3 3\n0 2\n1 2\n0 1\n")
        assert list(g.out_lists[0]) == [2, 1]

    def test_duplicate_arc_in_file(self):
        with pytest.raises(DuplicateArc):
            parse_edge_list("2 2\n0 1\n0 1\n")

    def test_comments_blanks_crlf_trailing_ws(self):
        text = "# a graph\r\n2 1 \r\n\r\n# arc next\n0 1\t\n"
        g = parse_edge_list(text)
        assert list(g.out_lists[0]) == [1]

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
        g = Graph(lists)
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_round_trip_sample(self):
        g = sample9()
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestGraphObject:
    def test_equality_and_hash(self):
        a = Graph([[1], []])
        b = parse_edge_list("2 1\n0 1\n")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph([[], []])
        c = Graph(iter([(1,), ()]))  # tuples from an iterator: the same graph
        assert c == a
        assert hash(c) == hash(a)

    def test_arcs_iteration(self):
        g = Graph([[2, 1], [], [0]])
        assert list(g.arcs()) == [(0, 2), (0, 1), (2, 0)]


class TestSetUpMemory:
    def test_construction_makes_no_transient_copy(self):
        """``Graph(lists)`` keeps the array it validates into as ``tgt``, so
        its peak allocation is what it keeps: a second copy of the targets
        would raise the peak by 4 bytes per arc."""
        lists = [list(targets) for targets in gnm(2000, 20000, seed=1).out_lists]
        Graph(lists)  # warm the caches and code paths the constructor touches
        gc.collect()
        tracemalloc.start()
        try:
            g = Graph(lists)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - kept) / g.num_arcs <= 0.5
