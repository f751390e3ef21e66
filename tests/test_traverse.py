import random
import threading
from array import array
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    BFS,
    COUNTERS,
    CostReport,
    DFS,
    ElimGraph,
    ElimGraphReused,
    Graph,
    InvalidStart,
    InvariantMonitor,
    MatchReport,
    PARANOID,
    ParEngine,
    SIMULATED,
    THREADED,
    TraversalResult,
    bfs,
    compare_results,
    dfs,
    gnm,
    path,
    sample9,
    seq_bfs,
    seq_dfs,
    solve,
    star_out,
    sweep,
    verify_against_oracle,
)
from arcelim.graph import ID
from arcelim.result import ABSENT, Column

SAMPLE_DFS_NUMBERS = {0: 0, 1: 1, 5: 2, 7: 3, 8: 4, 4: 5, 3: 6, 6: 7, 2: 8}
SAMPLE_DFS_TREE = {(0, 1), (1, 5), (5, 7), (7, 8), (8, 4), (4, 3), (3, 6), (5, 2)}
SAMPLE_BFS_TREE = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 7), (7, 8)}


def run(kind, g, s=0, a=0, p=1, backend=SIMULATED, monitor=None):
    """One solve's result and the cost of its traversal alone."""
    solved = solve(g, kind, s, a, p, backend, monitor=monitor)
    return solved.result, solved.engine.report() - solved.build


def run_sweep(kind, g):
    with ParEngine() as engine:
        eg = ElimGraph.build(g, engine)
        build = engine.report()
        result = sweep(eg, kind, 0, engine)
        total = engine.report()
    return result, total - build


def textbook_sweep(g, kind):
    """Restart a textbook search on every unvisited vertex in id order,
    scanning ``g.out_lists`` left to right: the reference for sweep."""
    n = g.num_vertices
    traversal, parent, distance = (array(ID, [ABSENT]) * n for _ in range(3))
    number = 0
    for r in range(n):
        if traversal[r] != ABSENT:
            continue
        traversal[r] = number
        number += 1
        if kind == BFS:
            distance[r] = 0
            queue = deque([r])
            while queue:
                u = queue.popleft()
                for v in g.out_lists[u]:
                    if traversal[v] == ABSENT:
                        traversal[v], parent[v], distance[v] = number, u, distance[u] + 1
                        number += 1
                        queue.append(v)
        else:
            stack = [(r, iter(g.out_lists[r]))]
            while stack:
                u, targets = stack[-1]
                for v in targets:
                    if traversal[v] == ABSENT:
                        traversal[v], parent[v] = number, u
                        number += 1
                        stack.append((v, iter(g.out_lists[v])))
                        break
                else:
                    stack.pop()
    return TraversalResult.collect(traversal, parent, distance, number, number)


def tree_edges(res):
    return {(p, v) for v, p in enumerate(res.parent) if p is not None}


def assert_spanning_tree(res, g, s):
    visited = [v for v, t in enumerate(res.traversal) if t is not None]
    for v in visited:
        p = res.parent[v]
        if v == s:
            assert p is None
            continue
        assert p is not None and res.traversal[p] is not None
        assert v in g.out_lists[p]
        hops = 0
        u = v
        while u != s:
            u = res.parent[u]
            hops += 1
            assert hops <= len(visited)


class TestDfs:
    def test_sample_numbering_and_tree(self):
        res, _ = run(DFS, sample9())
        assert {v: t for v, t in enumerate(res.traversal)} == SAMPLE_DFS_NUMBERS
        assert tree_edges(res) == SAMPLE_DFS_TREE

    def test_single_vertex(self):
        res, _ = run(DFS, Graph([[]]))
        assert list(res.traversal) == [0]
        assert res.next_number == 1

    def test_offset_numbering_partial_reach(self):
        res, _ = run(DFS, path(3), s=1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7
        assert res.visited_count == 2

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_sync_steps_equal_visits(self, p):
        _, trav = run(DFS, sample9(), p=p)
        assert trav.sync_steps == 9

    def test_invalid_start(self):
        eg = ElimGraph.build(path(3))
        with pytest.raises(InvalidStart):
            dfs(eg, 9)

    def test_deep_path_no_recursion_limit(self):
        res, _ = run(DFS, path(5000))
        assert res.visited_count == 5000

    def test_parent_numbered_before_child(self):
        res, _ = run(DFS, sample9())
        for v, p in enumerate(res.parent):
            if p is not None:
                assert res.traversal[p] < res.traversal[v]


class TestBfs:
    def test_sample_numbering_distances_tree(self):
        res, _ = run(BFS, sample9())
        assert list(res.traversal) == list(range(9))
        assert list(res.distance) == [0, 1, 1, 1, 1, 2, 2, 3, 4]
        assert tree_edges(res) == SAMPLE_BFS_TREE

    def test_single_vertex(self):
        res, _ = run(BFS, Graph([[]]))
        assert list(res.traversal) == [0]
        assert list(res.distance) == [0]

    def test_star(self):
        res, _ = run(BFS, star_out(5))
        assert list(res.traversal) == [0, 1, 2, 3, 4]
        assert list(res.distance) == [0, 1, 1, 1, 1]

    def test_offset_numbering(self):
        res, _ = run(BFS, path(3), s=1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_sync_steps_equal_visits(self, p):
        _, trav = run(BFS, sample9(), p=p)
        assert trav.sync_steps == 9

    def test_invalid_start(self):
        eg = ElimGraph.build(path(3))
        with pytest.raises(InvalidStart):
            bfs(eg, -1)


class LevelRecorder(InvariantMonitor):
    """Paranoid monitor that additionally records each next-level queue."""

    def __init__(self):
        super().__init__(PARANOID)
        self.levels = []

    def after_level(self, level, next_queue):
        super().after_level(level, next_queue)
        self.levels.append((level, list(next_queue)))


class TestBfsLevelStructure:
    def test_sample_level_queues_and_disjointness(self):
        recorder = LevelRecorder()
        run(BFS, sample9(), monitor=recorder)
        eg = recorder.eg
        assert recorder.levels[0] == (1, [1, 2, 3, 4])
        assert recorder.levels[1:] == [(2, [5, 6]), (3, [7]), (4, [8]), (5, [])]
        # no live arc connects two members of any recorded queue
        for _, members in recorder.levels:
            for u in members:
                assert not set(eg.live_targets(u)) & set(members)

    def test_level_members_share_distance(self):
        recorder = LevelRecorder()
        res, _ = run(BFS, sample9(), monitor=recorder)
        for level, members in recorder.levels:
            assert {res.distance[v] for v in members} <= {level}


class TestReuseGuard:
    def test_second_traversal_rejected(self):
        eg = ElimGraph.build(sample9())
        dfs(eg, 0)
        with pytest.raises(ElimGraphReused):
            dfs(eg, 0)
        with pytest.raises(ElimGraphReused):
            bfs(eg, 1)
        with pytest.raises(ElimGraphReused):
            sweep(eg, DFS)

    def test_invalid_start_reported_before_reuse(self):
        eg = ElimGraph.build(sample9())
        dfs(eg, 0)
        with pytest.raises(InvalidStart):
            dfs(eg, 9)
        with pytest.raises(InvalidStart):
            bfs(eg, -1)

    @pytest.mark.parametrize("kind", [DFS, BFS])
    def test_rejected_call_leaves_structure_usable(self, kind):
        g = sample9()
        eg = ElimGraph.build(g)
        driver = dfs if kind == DFS else bfs
        with pytest.raises(InvalidStart):
            driver(eg, 9)
        with pytest.raises(ValueError):
            sweep(eg, "best-first")
        assert driver(eg, 0) == (seq_dfs if kind == DFS else seq_bfs)(g, 0)


class TestPInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_result_identical_across_p_and_backend(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        for kind in (DFS, BFS):
            base, base_trav = run(kind, g, s)
            for p, backend in ((2, SIMULATED), (5, SIMULATED), (2, THREADED)):
                res, trav = run(kind, g, s, p=p, backend=backend)
                assert res == base
                assert trav.sync_steps == base_trav.sync_steps
                assert trav.work == base_trav.work
                assert trav.seq_steps == base_trav.seq_steps

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sync_equals_visited(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        for kind in (DFS, BFS):
            res, trav = run(kind, g, s, p=rng.choice([1, 2, 4]))
            assert trav.sync_steps == res.visited_count


class TestDerivedReport:
    """The counted cost at any p follows from one run's block sizes."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("kind", ["dfs", "bfs", "sweep"])
    @pytest.mark.parametrize("graph", ["sample9", "gnm"])
    def test_report_at_p_equals_a_run_at_p(self, backend, kind, graph):
        g = sample9() if graph == "sample9" else gnm(40, 300, 11)

        def engine_after_run(p):
            with ParEngine(p, backend=backend) as engine:
                eg = ElimGraph.build(g, engine)
                if kind == "sweep":
                    sweep(eg, BFS, 0, engine)
                else:
                    (dfs if kind == DFS else bfs)(eg, 0, 0, engine)
            return engine

        once = engine_after_run(1)
        for p in (1, 2, 3, 8):
            assert once.report(p) == engine_after_run(p).report()


class TestDifferential:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_engine_option_matches_oracle(self, data):
        """Graph, start, kind, single search or sweep, p, backend, monitor
        level and write validation drawn together; a DisjointWriteViolation or
        InvariantViolation would propagate and fail the example."""
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(0, min(4 * n, n * (n - 1))), label="m")
        g = gnm(n, m, data.draw(st.integers(0, 10**6), label="seed"))
        s = data.draw(st.integers(0, n - 1), label="start")
        kind = data.draw(st.sampled_from([DFS, BFS]), label="kind")
        whole = data.draw(st.booleans(), label="sweep")
        p = data.draw(st.integers(1, 5), label="p")
        backend = data.draw(st.sampled_from([SIMULATED, THREADED]), label="backend")
        levels = [None, COUNTERS] + ([PARANOID] if n <= 16 else [])
        level = data.draw(st.sampled_from(levels), label="monitor")
        validate = data.draw(st.booleans(), label="validate_writes")
        monitor = None if level is None else InvariantMonitor(level)
        with ParEngine(p, backend=backend, validate_writes=validate) as engine:
            eg = ElimGraph.build(g, engine, monitor=monitor)
            if whole:
                got = sweep(eg, kind, 0, engine)
            else:
                got = (dfs if kind == DFS else bfs)(eg, s, 0, engine)
        want = textbook_sweep(g, kind) if whole else (seq_dfs if kind == DFS else seq_bfs)(g, s, 0)
        report = compare_results(got, want)
        assert report.ok, report.mismatches
        assert got == want
        if monitor is not None:
            assert monitor.stats["visit_checks"] == got.visited_count


class TestSingleElimination:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_each_arc_eliminated_at_most_once(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        kind = rng.choice([DFS, BFS])
        monitor = InvariantMonitor(PARANOID)
        res, _ = run(kind, g, s, monitor=monitor)
        eg = monitor.eg
        visited = [v for v, t in enumerate(res.traversal) if t is not None]
        # the monitor raises on any double elimination; count the singles
        assert monitor.stats["eliminations"] == sum(
            eg.in_off[v + 1] - eg.in_off[v] for v in visited)


class TestTreeValidity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_parents_span_visited_set(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        for kind in (DFS, BFS):
            res, _ = run(kind, g, s)
            assert_spanning_tree(res, g, s)


class TestOracleAgreement:
    def test_sample_all_starts_both_kinds(self):
        g = sample9()
        for s in range(9):
            for kind in (DFS, BFS):
                report = verify_against_oracle(g, s, kind)
                assert report.ok, report.mismatches

    def test_mismatch_is_reported_not_thrown(self):
        from arcelim import TraversalResult

        driver = seq_dfs(path(3), 0)
        forged = TraversalResult.collect(array(ID, [0, 2, 1]), array(ID, [ABSENT, 0, 1]),
                                         array(ID, [ABSENT]) * 3, 3, 3)
        report = compare_results(driver, forged)
        assert not report.ok
        assert report.mismatches[0] == "traversal[1]: driver=1 oracle=2"

    @pytest.mark.parametrize("oracle, message", [
        (seq_dfs(path(4), 0), "vertex count: driver=3 oracle=4"),
        (replace(seq_dfs(path(3), 0), visited_count=4), "visited_count: driver=3 oracle=4"),
        (replace(seq_dfs(path(3), 0), next_number=7), "next_number: driver=3 oracle=7"),
    ])
    def test_count_mismatch_is_named(self, oracle, message):
        assert compare_results(seq_dfs(path(3), 0), oracle) == MatchReport(False, (message,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_against_oracle(path(2), 0, "iddfs")


class TestSolve:
    """``solve`` opens an engine, builds, runs one search and closes the
    engine; the record splits the cost between build and traversal."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_record(self, backend):
        solved = solve(sample9(), DFS, 1, 5, processors=3, backend=backend)
        assert solved.result == seq_dfs(sample9(), 1, 5)
        assert solved.build.sync_steps == 10
        assert solved.engine.processors == 3
        assert solved.engine.report().sync_steps == 10 + solved.result.visited_count
        assert solved.wall_ns > 0

    def test_threaded_engine_comes_back_closed(self):
        engine = solve(sample9(), BFS, processors=2, backend=THREADED).engine
        with pytest.raises(ValueError, match="closed threaded engine"):
            engine.par_for(1, lambda r: None)

    def test_validate_and_monitor_pass_through(self):
        monitor = InvariantMonitor(COUNTERS)
        solved = solve(gnm(30, 120, 5), BFS, validate=True, monitor=monitor)
        assert solved.engine.log_write is not None
        assert monitor.eg is not None
        assert monitor.stats["visit_checks"] == solved.result.visited_count

    def test_unknown_kind_opens_no_engine(self, monkeypatch):
        opened = []
        monkeypatch.setattr("arcelim.traverse.ParEngine", lambda *a, **k: opened.append(a))
        with pytest.raises(ValueError, match="unknown traversal kind 'iddfs'"):
            solve(path(2), "iddfs")
        assert opened == []

    @pytest.mark.parametrize("kind", [DFS, BFS])
    @pytest.mark.parametrize("g, start, message", [
        (sample9(), 9, "start vertex 9 not in 0..8"),
        (sample9(), -1, "start vertex -1 not in 0..8"),
        (Graph([]), 0, "start vertex 0: the graph has no vertices"),
    ], ids=["n", "minus-one", "empty-graph"])
    def test_bad_start_opens_no_engine(self, monkeypatch, kind, g, start, message):
        """The start is checked before the build, so a bad one costs no
        engine, no build blocks and no monitor attach."""
        opened = []
        monkeypatch.setattr("arcelim.traverse.ParEngine", lambda *a, **k: opened.append(a))
        monitor = InvariantMonitor(COUNTERS)
        with pytest.raises(InvalidStart) as exc:
            solve(g, kind, start, monitor=monitor)
        assert str(exc.value) == message
        assert opened == []
        assert monitor.eg is None


class TestResult:
    """A result's fields are read-only sequences of Optional[int] over the
    run's cells; results compare and hash by value, whoever filled them."""

    @pytest.mark.parametrize("a", [0, -5, 2**32])
    @pytest.mark.parametrize("kind", [DFS, BFS])
    def test_driver_result_equals_and_hashes_like_the_oracle(self, kind, a):
        g = gnm(64, 256, 3)
        got, _ = run(kind, g, 5, a)
        want = (seq_dfs if kind == DFS else seq_bfs)(g, 5, a)
        assert got == want
        assert hash(got) == hash(want)
        assert {got, want} == {want}
        assert compare_results(got, want).ok

    @pytest.mark.parametrize("kind", [DFS, BFS])
    def test_fields_iterate_as_optional_ints(self, kind):
        g = Graph([[1], [], [0]])  # 2 is unreachable from 0
        res, _ = run(kind, g, 0, 7)
        for field in (res.traversal, res.parent, res.distance):
            assert len(field) == 3
            assert all(x is None or type(x) is int for x in field)
            assert list(field) == [field[v] for v in range(3)]
        assert list(res.traversal) == [7, 8, None]
        assert list(res.parent) == [None, 0, None]
        assert list(res.distance) == ([None] * 3 if kind == DFS else [0, 1, None])
        assert res.visited() == [0, 1]
        assert (res.visited_count, res.next_number) == (2, 9)

    def test_results_from_lists_equal_results_from_cells(self):
        """Equal values compare and hash equal however the cells were filled."""
        res, _ = run(DFS, path(3), 0, 10)
        parent, distance = array(ID, [ABSENT, 0, 1]), array(ID, [ABSENT]) * 3
        packed = TraversalResult.collect(array(ID, [0, 1, 2]), parent, distance, 13, 3)
        assert packed == res and hash(packed) == hash(res)
        other = TraversalResult.collect(array(ID, [0, 2, 1]), parent, distance, 13, 3)
        assert other != res

    def test_columns_compare_by_value_across_bases(self):
        same = Column(array(ID, [0, ABSENT, 2]), 10), Column(array(ID, [5, ABSENT, 7]), 5)
        assert same[0] == same[1] and hash(same[0]) == hash(same[1])
        assert Column(array(ID, [0, ABSENT, 3]), 10) != same[1]
        assert Column(array(ID, [0, 1, 2]), 10) != same[1]
        assert same[0] != (10, None, 12)

    @pytest.mark.parametrize("a", [0, 7])
    @pytest.mark.parametrize("kind", [DFS, BFS])
    def test_a_slice_of_a_field_is_a_tuple_of_its_values(self, kind, a):
        g = Graph([[1, 3], [2], [], [], []])  # 4 is unreachable from 0
        res = (seq_dfs if kind == DFS else seq_bfs)(g, 0, a)
        got, _ = run(kind, g, 0, a)
        for field in ("traversal", "parent", "distance"):
            for r in (res, got):
                values = list(getattr(r, field))
                for sl in (slice(1, 4), slice(None), slice(None, None, -2),
                           slice(-1, 0, -1), slice(3, 1)):
                    assert getattr(r, field)[sl] == tuple(values[sl])
        assert got.traversal[::-2] == (None, 2 + a if kind == DFS else 3 + a, a)
        assert got.parent[-2:] == (0, None)

    def test_fields_are_read_only(self):
        res, _ = run(BFS, path(3))
        with pytest.raises(TypeError):
            res.traversal[0] = 5


class TestSweep:
    def test_forest_numbering_continuous(self):
        g = Graph([[1], [], [3], [], []])
        res = sweep(ElimGraph.build(g), DFS)
        assert list(res.traversal) == [0, 1, 2, 3, 4]
        assert list(res.parent) == [None, 0, None, 2, None]
        assert res.next_number == 5

    def test_bfs_sweep_distances_per_component(self):
        g = Graph([[1], [], [3], [], []])
        res = sweep(ElimGraph.build(g), BFS)
        assert list(res.distance) == [0, 1, 0, 1, 0]

    def test_restart_order_is_id_order(self):
        g = Graph([[], [0], [1]])
        res = sweep(ElimGraph.build(g), DFS)
        # 0 visited first, restart at 1 reaches nothing new, restart at 2
        assert list(res.traversal) == [0, 1, 2]
        assert list(res.parent) == [None, None, None]

    def test_offset_and_kind_validation(self):
        g = path(3)
        res = sweep(ElimGraph.build(g), BFS, a=10)
        assert list(res.traversal) == [10, 11, 12]
        with pytest.raises(ValueError):
            sweep(ElimGraph.build(g), "best-first")

    def test_sweep_with_monitor(self):
        monitor = InvariantMonitor(PARANOID)
        g = gnm(12, 20, 3)
        eg = ElimGraph.build(g, monitor=monitor)
        res = sweep(eg, BFS)
        assert res.visited_count == 12
        assert monitor.stats["eliminations"] == 20


class TestSharedAdjacency:
    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_traversals_leave_the_graph_as_built(self, backend):
        """Every search structure over one graph reads its off/tgt/in_off
        arrays; validated, monitored traversals on fresh structures leave
        them and out_lists as they were, and each result equals the
        oracle's."""
        g = gnm(40, 150, 11)
        off, tgt, out_lists = g.off.tolist(), g.tgt.tolist(), g.out_lists
        in_off = g.in_off.tolist()
        runs = [
            (lambda eg, e: dfs(eg, 0, 0, e), seq_dfs(g, 0)),
            (lambda eg, e: bfs(eg, 0, 0, e), seq_bfs(g, 0)),
            (lambda eg, e: sweep(eg, DFS, 0, e), textbook_sweep(g, DFS)),
            (lambda eg, e: sweep(eg, BFS, 0, e), textbook_sweep(g, BFS)),
        ]
        for search, want in runs:
            monitor = InvariantMonitor(COUNTERS)
            with ParEngine(2, backend=backend, validate_writes=True) as engine:
                eg = ElimGraph(g, engine, monitor)
                assert eg.off is g.off and eg.tgt is g.tgt and eg.in_off is g.in_off
                assert search(eg, engine) == want
            assert monitor.stats["eliminations"] > 0
            assert g.off.tolist() == off and g.tgt.tolist() == tgt
            assert g.in_off.tolist() == in_off
            assert g.out_lists is out_lists


def visit_lines(*visits):
    return [f"visit {v} number={t} level={level}" for t, (v, level) in enumerate(visits)]


# two sweep roots, 0 and 4; the arc 4->1 is already eliminated at the restart
RESTART_GRAPH = [[1, 2], [3], [], [], [5, 1], []]


class TestTrace:
    def test_trace_lines_format_and_order(self):
        eg = ElimGraph.build(sample9())
        assert list(dfs(eg, 0).trace()) == visit_lines(
            (0, 0), (1, 1), (5, 2), (7, 3), (8, 4), (4, 5), (3, 6), (6, 7), (2, 3)
        )

    @pytest.mark.parametrize(
        "search, adjacency, want",
        [
            (
                lambda eg: bfs(eg, 0),
                None,
                visit_lines((0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 4)),
            ),
            (
                lambda eg: sweep(eg, DFS),
                RESTART_GRAPH,
                visit_lines((0, 0), (1, 1), (3, 2), (2, 1), (4, 0), (5, 1)),
            ),
            (
                lambda eg: sweep(eg, BFS),
                RESTART_GRAPH,
                visit_lines((0, 0), (1, 1), (2, 1), (3, 2), (4, 0), (5, 1)),
            ),
        ],
        ids=["bfs", "sweep-dfs", "sweep-bfs"],
    )
    def test_golden_trace(self, search, adjacency, want):
        g = sample9() if adjacency is None else Graph(adjacency)
        assert list(search(ElimGraph.build(g)).trace()) == want

    def test_bfs_trace_levels_match_distances(self):
        eg = ElimGraph.build(sample9())
        res = bfs(eg, 0)
        lines = list(res.trace())
        assert len(lines) == res.visited_count
        for line in lines:
            parts = dict(tok.split("=") for tok in line.split()[2:])
            v = int(line.split()[1])
            assert int(parts["level"]) == res.distance[v]
            assert int(parts["number"]) == res.traversal[v]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_driver_trace_equals_oracle_trace(self, data):
        """The lines read from a driver's result are the oracle result's,
        for any first number, single searches and sweeps alike."""
        n = data.draw(st.integers(1, 30), label="n")
        m = data.draw(st.integers(0, min(4 * n, n * (n - 1))), label="m")
        g = gnm(n, m, data.draw(st.integers(0, 10**6), label="seed"))
        kind = data.draw(st.sampled_from([DFS, BFS]), label="kind")
        a = data.draw(st.sampled_from([-7, 0, 2**32 + 3]), label="a")
        eg = ElimGraph(g)
        if data.draw(st.booleans(), label="sweep"):
            got = sweep(eg, kind, a)
            ref = textbook_sweep(g, kind)  # numbered from 0: rebased to a below
            want = TraversalResult.collect(ref.traversal._cells, ref.parent._cells,
                                           ref.distance._cells, a + ref.visited_count,
                                           ref.visited_count)
        else:
            s = data.draw(st.integers(0, n - 1), label="start")
            got = (dfs if kind == DFS else bfs)(eg, s, a)
            want = (seq_dfs if kind == DFS else seq_bfs)(g, s, a)
        assert list(got.trace()) == list(want.trace())
        assert len(list(got.trace())) == got.visited_count


class TestDefaultEngine:
    @pytest.mark.parametrize("search", [dfs, bfs])
    def test_traversal_charges_the_build_engine(self, search):
        """Without ``engine=``, a traversal is charged to the engine its
        structure was built on: n + 1 build blocks, then one per visit."""
        g = gnm(50, 300, 1)
        engine = ParEngine()
        eg = ElimGraph(g, engine)
        res = search(eg, 0)
        assert res.visited_count == 50
        assert engine.report().sync_steps == g.num_vertices + 1 + res.visited_count == 101
        want = 3 * 50 - 1 if search is dfs else 5 * 50 - 1 + levels(res, range(50))
        assert engine.report().seq_steps == want

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("kind", ["dfs", "bfs", "sweep"])
    def test_foreign_engine_rejected_before_any_block(self, kind, backend):
        """``engine=`` other than the build's raises before either engine
        is charged, and the structure can still be traversed."""
        def search(eg, engine=None):
            if kind == "sweep":
                return sweep(eg, BFS, 0, engine)
            return (dfs if kind == "dfs" else bfs)(eg, 0, 0, engine)

        g = gnm(30, 120, 4)
        with ParEngine(2, backend=backend) as engine, ParEngine(2, backend=backend) as other:
            eg = ElimGraph(g, engine)
            built = engine.report()
            with pytest.raises(ValueError, match="built on"):
                search(eg, other)
            assert engine.report() == built
            assert other.report() == CostReport()
            assert search(eg, engine) == search(ElimGraph(g))

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("search", [dfs, bfs])
    def test_traversal_after_the_engine_closed(self, search, backend):
        """A threaded engine closed after the build refuses the traversal
        and starts no thread; closing a simulated engine is a no-op."""
        g = gnm(30, 120, 4)
        before = threading.active_count()
        with ParEngine(2, backend=backend) as engine:
            eg = ElimGraph(g, engine)
        built = engine.report()
        if backend == THREADED:
            with pytest.raises(ValueError, match="closed"):
                search(eg, 0)
            assert engine.report() == built
        else:
            assert search(eg, 0) == search(ElimGraph(g), 0)
        assert threading.active_count() == before


def levels(res, vertices):
    """Number of BFS levels spanned by ``vertices``: max distance + 1."""
    return max(res.distance[v] for v in vertices) + 1


class TestSeqSteps:
    """Exact sequential driver charge, with k visits, L BFS levels and R
    sweep roots: dfs 3k - 1, bfs 5k - 1 + L, DFS sweep 3n - R, BFS sweep
    5n - R + sum of L over the roots' trees."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_single_search(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        res, trav = run(DFS, g, s)
        assert trav.seq_steps == 3 * res.visited_count - 1
        res, trav = run(BFS, g, s)
        visited = [v for v, t in enumerate(res.traversal) if t is not None]
        assert trav.seq_steps == 5 * res.visited_count - 1 + levels(res, visited)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sweep(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        res, trav = run_sweep(DFS, g)
        roots = [v for v in range(n) if res.parent[v] is None]
        assert trav.seq_steps == 3 * n - len(roots)
        res, trav = run_sweep(BFS, g)
        trees = {}
        for v in range(n):
            r = v
            while res.parent[r] is not None:
                r = res.parent[r]
            trees.setdefault(r, []).append(v)
        bfs_levels = sum(levels(res, members) for members in trees.values())
        assert trav.seq_steps == 5 * n - len(trees) + bfs_levels
