import gc
import tracemalloc
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    CountMismatch,
    DuplicateArc,
    EdgeListSyntaxError,
    Graph,
    GraphError,
    GraphTooLarge,
    TargetNotInteger,
    TargetOutOfRange,
    generators,
    gnm,
    graph,
    parse_edge_list,
    sample9,
    serialize_edge_list,
)
from arcelim.cli import FAMILIES


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

    def test_equality_is_ordered_adjacency(self):
        """Equal graphs have equal ``off`` and ``tgt``: the same arcs in
        another order, or the same arcs over more vertices, differ."""
        assert Graph([[1, 2], [], []]) != Graph([[2, 1], [], []])
        assert Graph([[]]) != Graph([[], []])
        assert Graph([[], [0]]) != Graph([[1], []])
        a, b = gnm(40, 200, 3), parse_edge_list(serialize_edge_list(gnm(40, 200, 3)))
        assert a == b and a is not b
        assert hash(a) == hash(b)

    def test_arcs_iteration(self):
        g = Graph([[2, 1], [], [0]])
        arcs = [(u, g.tgt[a]) for u in range(g.num_vertices) for a in range(g.off[u], g.off[u + 1])]
        assert arcs == [(0, 2), (0, 1), (2, 0)]


def in_degree_prefix_sums(g):
    """0, then the running total of the in-degrees, counted from out_lists."""
    indegree = [0] * g.num_vertices
    for targets in g.out_lists:
        for v in targets:
            indegree[v] += 1
    return [0, *accumulate(indegree)]


IN_OFF_GRAPHS = {
    "sample9": sample9,
    "path": lambda: generators.path(50),
    "gnm": lambda: gnm(60, 400, 2),
    "isolated vertices": lambda: Graph([[], [3, 0], [], [], [1, 4], [], []]),
    "Graph([])": lambda: Graph([]),
    "Graph([[]])": lambda: Graph([[]]),
}


class TestInOffsets:
    """``in_off`` is the prefix sums of the in-degrees, counted from ``tgt``
    on first read and kept."""

    @pytest.mark.parametrize("name", IN_OFF_GRAPHS)
    def test_prefix_sums_of_in_degrees(self, name):
        g = IN_OFF_GRAPHS[name]()
        in_off = g.in_off
        assert in_off.typecode == graph.ID
        assert in_off.tolist() == in_degree_prefix_sums(g)
        assert g.in_off is in_off and g.in_off is in_off

    def test_counted_on_first_read_only(self):
        """Building a graph counts nothing, so a set-up that never searches
        the graph never pays for the count."""
        g = gnm(60, 400, 2)
        assert g._in_off is None
        in_off = g.in_off
        assert g._in_off is in_off

    def test_equality_and_hash_ignore_in_off(self):
        read, unread = gnm(40, 200, 3), gnm(40, 200, 3)
        read.in_off
        assert read == unread and hash(read) == hash(unread)


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


def reference_serialize(g):
    """The per-arc writer: one f-string per arc of ``out_lists``.  The
    serializer must give exactly these bytes."""
    lines = [f"{g.num_vertices} {g.num_arcs}"]
    lines.extend(f"{u} {v}" for u, targets in enumerate(g.out_lists) for v in targets)
    return "\n".join(lines) + "\n"


# one small instance of every generator family, the CLI's table
FAMILY_GRAPHS = {
    "gnm": [gnm(50, 300, seed=s) for s in (1, 2)] + [gnm(1, 0, seed=3), gnm(2, 2, seed=4)],
    "complete": [generators.complete(1), generators.complete(12)],
    "path": [generators.path(1), generators.path(2), generators.path(1002)],
    "star_out": [generators.star_out(1), generators.star_out(1001)],
    "layered_dag": [generators.layered_dag(4, 5, seed=1), generators.layered_dag(1, 1, seed=2)],
    "sample9": [sample9()],
}

# ids on both sides of each power of ten, as sources and as targets
POWERS_OF_TEN = Graph([[10], [], [], [], [], [], [], [], [], [99, 100]]
                      + [[] for _ in range(89)] + [[1000, 9]] + [[] for _ in range(899)]
                      + [[1000, 999], [0]])


class TestSerializeBytes:
    def test_every_family_is_covered(self):
        assert set(FAMILY_GRAPHS) == set(FAMILIES)

    @pytest.mark.parametrize("g", [g for gs in FAMILY_GRAPHS.values() for g in gs], ids=repr)
    def test_families(self, g):
        assert serialize_edge_list(g) == reference_serialize(g)

    @pytest.mark.parametrize("g", [
        Graph([]),
        Graph([[]]),
        Graph([[0]]),
        Graph([[] for _ in range(5)]),  # m = 0
        Graph([[], [3, 0], [], [], [1], []]),  # isolated vertices, first and last too
        POWERS_OF_TEN,
    ], ids=repr)
    def test_edge_shapes(self, g):
        assert serialize_edge_list(g) == reference_serialize(g)

    @given(adjacency_lists(max_n=12))
    def test_random(self, lists):
        g = Graph(lists)
        assert serialize_edge_list(g) == reference_serialize(g)


def outcome(text):
    """What ``parse_edge_list`` makes of ``text``: the graph, or the
    error's type and message."""
    try:
        return parse_edge_list(text)
    except GraphError as err:
        return type(err), str(err)


def line_parser_outcome(text):
    """``outcome`` with the canonical reader switched off, so that every
    text goes through the line parser."""
    with mock.patch.object(graph, "_canonical_lists", lambda text: None):
        return outcome(text)


def _token_edit(edit):
    def perturb(lines, i, n):
        u, v = lines[i].split(" ")
        lines[i] = f"{u} {edit(v, n)}" if i % 2 else f"{edit(u, n)} {v}"
    return perturb


def _swap(lines, i, n):
    # with the next arc line: "u a, u b, w c" becomes "u a, w c, u b", which
    # splits u's run of lines in two
    j = 1 + i % (len(lines) - 1)
    lines[i], lines[j] = lines[j], lines[i]


def _move_token_up(lines, i, n):
    # "u v\nx y" -> "u v x\ny": the same tokens, a 3-token and a 1-token line
    if i + 1 < len(lines):
        x, y = lines[i + 1].split(" ")
        lines[i], lines[i + 1] = f"{lines[i]} {x}", y


def _duplicate(lines, i, n):
    lines.insert(i, lines[i])
    lines[0] = f"{n} {len(lines) - 1}"


def _recount(delta):
    def perturb(lines, i, n):
        lines[0] = f"{n} {len(lines) - 1 + delta}"
    return perturb


# each edits the lines of a canonical text (header first) at arc line i;
# the text is then joined with "\n" and a final newline
PERTURBATIONS = {
    "comment": lambda lines, i, n: lines.insert(i, "# a comment"),
    "blank line": lambda lines, i, n: lines.insert(i, ""),
    "tab": lambda lines, i, n: lines.__setitem__(i, lines[i].replace(" ", "\t")),
    "trailing space": lambda lines, i, n: lines.__setitem__(i, lines[i] + " "),
    "leading zero": _token_edit(lambda t, n: "0" + t),
    "plus sign": _token_edit(lambda t, n: "+" + t),
    "out of range": _token_edit(lambda t, n: str(n)),
    "negative": _token_edit(lambda t, n: "-1"),
    "not an integer": _token_edit(lambda t, n: t + "x"),
    "swapped lines": _swap,
    "line moved last": lambda lines, i, n: lines.append(lines.pop(i)),
    "duplicate arc": _duplicate,
    "three tokens": lambda lines, i, n: lines.__setitem__(i, lines[i] + " 0"),
    "token moved up": _move_token_up,
    "too few arcs": _recount(-1),
    "too many arcs": _recount(1),
    "header zero": lambda lines, i, n: lines.__setitem__(0, "0" + lines[0]),
}


class TestParseCanonicalForm:
    """The canonical reader gives exactly what the line parser gives."""

    @given(adjacency_lists(max_n=12))
    def test_serialized_text_is_read_by_the_canonical_reader(self, lists):
        g = Graph(lists)
        text = serialize_edge_list(g)
        assert graph._canonical_lists(text) is not None
        assert parse_edge_list(text) == g == line_parser_outcome(text)

    @settings(max_examples=400)
    @given(adjacency_lists(max_n=12), st.sampled_from(sorted(PERTURBATIONS)),
           st.integers(0, 10**6), st.booleans(), st.booleans())
    def test_perturbed_text_reads_as_the_line_parser_reads_it(
            self, lists, name, at, crlf, final_newline):
        g = Graph(lists)
        lines = serialize_edge_list(g).splitlines()
        if len(lines) > 1:
            PERTURBATIONS[name](lines, 1 + at % (len(lines) - 1), g.num_vertices)
        text = ("\r\n" if crlf else "\n").join(lines) + ("\n" if final_newline else "")
        assert outcome(text) == line_parser_outcome(text)

    @pytest.mark.parametrize("text", [
        "3 3\n0 1\n1 2\n0 2\n",  # a source run split by another source
        "3 2\n1 2\n0 1\n",  # sources fall
        "3 2\n0 1\n00 2\n",  # one source written two ways
        "3 2\n0 1\n0 02\n",  # a leading zero
        "3 2\n0 1 1\n2\n",  # the right tokens on the wrong lines
        "3 2\n0 1\n0 2",  # no final newline
        "5 1\n1 2\n34",  # a token after the last newline
        "8 1\n 5\n7",
        "2 0\n5",
        "3 2\n0 1\n-1 2\n",
        "3 2\n0 1\n3 2\n",
        "3 2\n0 1\n0 \u0662\n",  # a digit outside ASCII
        "3 2\n0 1\n0 \udc802\n",  # a lone surrogate, as surrogateescape reads bytes
        "2 1\n0 1\n\n",
        "2 1\r\n0 1\r\n",
        "02 1\n0 1\n",
        "2 0\n\n",
    ])
    def test_texts_the_canonical_reader_hands_over(self, text):
        assert graph._canonical_lists(text) is None
        assert outcome(text) == line_parser_outcome(text)

    def test_a_split_run_keeps_every_arc(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
        assert g.out_lists == ((1, 2), (2,), ())


class TestParseBounds:
    def test_short_body_allocates_nothing_per_vertex(self):
        """A header that promises more than the text holds costs memory
        in proportion to the text, not to n or m."""
        for text in ("2000000 5\n0 1\n", "# comment\n2000000 5\n0 1\n", "2 3000000\n0 1\n"):
            parse_edge_list("3 1\n0 1\n")  # warm the code paths
            gc.collect()
            tracemalloc.start()
            try:
                with pytest.raises(CountMismatch):
                    parse_edge_list(text)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    # each header names no arc line, so a parser that lost the check raises
    # CountMismatch without allocating anything per vertex
    @pytest.mark.parametrize("header, n, m, limit", [
        ("4294967295 1", 4294967295, 1, "at most 4294967294"),
        ("4294967296 1", 4294967296, 1, "at most 4294967294"),
        ("4294967290 7", 4294967290, 7, "at most 4294967296"),
        ("1 4294967296", 1, 4294967296, "at most 4294967296"),
    ])
    @pytest.mark.parametrize("prefix", ["", "# comment\n"])
    def test_header_beyond_32_bit_ids(self, header, n, m, limit, prefix):
        with pytest.raises(GraphTooLarge) as exc:
            parse_edge_list(prefix + header + "\n")
        assert (exc.value.num_vertices, exc.value.num_arcs) == (n, m)
        assert limit in str(exc.value)

    @pytest.mark.parametrize("limit, value", [("MAX_VERTICES", 99), ("MAX_NODES", 100)])
    @pytest.mark.parametrize("prefix", ["", "# comment\n"])
    def test_both_readers_check_the_header(self, limit, value, prefix):
        """With the limits lowered, a header just past one raises from the
        canonical reader and from the line parser alike, however complete
        the arcs that follow."""
        g = generators.path(100)
        with mock.patch.object(graph, limit, value):
            with pytest.raises(GraphTooLarge):
                parse_edge_list(prefix + serialize_edge_list(g))
            assert parse_edge_list(prefix + serialize_edge_list(generators.path(50))) \
                == generators.path(50)

    @pytest.mark.parametrize("header", ["4294967294 2", "2 4294967294"])
    def test_header_at_the_limits_is_accepted(self, header):
        # n + m == 2**32 fits; no arc line follows, so the count is short
        with pytest.raises(CountMismatch):
            parse_edge_list(header + "\n")
