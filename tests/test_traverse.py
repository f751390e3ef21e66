import random

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    BFS,
    COUNTERS,
    DFS,
    ElimGraph,
    ElimGraphReused,
    Graph,
    InvalidStart,
    InvariantMonitor,
    PARANOID,
    ParEngine,
    SIMULATED,
    THREADED,
    bfs,
    compare_results,
    dfs,
    gnm,
    path,
    sample9,
    seq_bfs,
    seq_dfs,
    star_out,
    sweep,
    verify_against_oracle,
)

SAMPLE_DFS_NUMBERS = {0: 0, 1: 1, 5: 2, 7: 3, 8: 4, 4: 5, 3: 6, 6: 7, 2: 8}
SAMPLE_DFS_TREE = {(0, 1), (1, 5), (5, 7), (7, 8), (8, 4), (4, 3), (3, 6), (5, 2)}
SAMPLE_BFS_TREE = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 7), (7, 8)}


def run(kind, g, s=0, a=0, p=1, backend=SIMULATED, monitor=None):
    with ParEngine(p, backend=backend) as engine:
        eg = ElimGraph.build(g, engine, monitor=monitor)
        build = engine.report()
        driver = dfs if kind == DFS else bfs
        result = driver(eg, s, a, engine)
        total = engine.report()
    return result, total - build, eg


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
        assert v in g.targets(p)
        hops = 0
        u = v
        while u != s:
            u = res.parent[u]
            hops += 1
            assert hops <= len(visited)


class TestDfs:
    def test_sample_numbering_and_tree(self):
        res, _, _ = run(DFS, sample9())
        assert {v: t for v, t in enumerate(res.traversal)} == SAMPLE_DFS_NUMBERS
        assert tree_edges(res) == SAMPLE_DFS_TREE

    def test_single_vertex(self):
        res, _, _ = run(DFS, Graph.from_adjacency([[]]))
        assert list(res.traversal) == [0]
        assert res.next_number == 1

    def test_offset_numbering_partial_reach(self):
        res, _, _ = run(DFS, path(3), s=1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7
        assert res.visited_count == 2

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_sync_steps_equal_visits(self, p):
        _, trav, _ = run(DFS, sample9(), p=p)
        assert trav.sync_steps == 9

    def test_invalid_start(self):
        eg = ElimGraph.build(path(3))
        with pytest.raises(InvalidStart):
            dfs(eg, 9)

    def test_deep_path_no_recursion_limit(self):
        res, _, _ = run(DFS, path(5000))
        assert res.visited_count == 5000

    def test_parent_numbered_before_child(self):
        res, _, _ = run(DFS, sample9())
        for v, p in enumerate(res.parent):
            if p is not None:
                assert res.traversal[p] < res.traversal[v]


class TestBfs:
    def test_sample_numbering_distances_tree(self):
        res, _, _ = run(BFS, sample9())
        assert list(res.traversal) == list(range(9))
        assert list(res.distance) == [0, 1, 1, 1, 1, 2, 2, 3, 4]
        assert tree_edges(res) == SAMPLE_BFS_TREE

    def test_single_vertex(self):
        res, _, _ = run(BFS, Graph.from_adjacency([[]]))
        assert list(res.traversal) == [0]
        assert list(res.distance) == [0]

    def test_star(self):
        res, _, _ = run(BFS, star_out(5))
        assert list(res.traversal) == [0, 1, 2, 3, 4]
        assert list(res.distance) == [0, 1, 1, 1, 1]

    def test_offset_numbering(self):
        res, _, _ = run(BFS, path(3), s=1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_sync_steps_equal_visits(self, p):
        _, trav, _ = run(BFS, sample9(), p=p)
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
        res, _, eg = run(BFS, sample9(), monitor=recorder)
        assert recorder.levels[0] == (1, [1, 2, 3, 4])
        assert recorder.levels[1:] == [(2, [5, 6]), (3, [7]), (4, [8]), (5, [])]
        # no live arc connects two members of any recorded queue
        for _, members in recorder.levels:
            for u in members:
                assert not set(eg.live_targets(u)) & set(members)

    def test_level_members_share_distance(self):
        recorder = LevelRecorder()
        res, _, _ = run(BFS, sample9(), monitor=recorder)
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


class TestPInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_result_identical_across_p_and_backend(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        for kind in (DFS, BFS):
            base, base_trav, _ = run(kind, g, s)
            for p, backend in ((2, SIMULATED), (5, SIMULATED), (2, THREADED)):
                res, trav, _ = run(kind, g, s, p=p, backend=backend)
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
            res, trav, _ = run(kind, g, s, p=rng.choice([1, 2, 4]))
            assert trav.sync_steps == res.visited_count


class TestDifferential:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_engine_option_matches_oracle(self, data):
        """Graph, start, kind, p, backend, monitor level and write
        validation drawn together; a DisjointWriteViolation or
        InvariantViolation would propagate and fail the example."""
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(0, min(4 * n, n * (n - 1))), label="m")
        g = gnm(n, m, data.draw(st.integers(0, 10**6), label="seed"))
        s = data.draw(st.integers(0, n - 1), label="start")
        kind = data.draw(st.sampled_from([DFS, BFS]), label="kind")
        p = data.draw(st.integers(1, 5), label="p")
        backend = data.draw(st.sampled_from([SIMULATED, THREADED]), label="backend")
        levels = [None, COUNTERS] + ([PARANOID] if n <= 16 else [])
        level = data.draw(st.sampled_from(levels), label="monitor")
        validate = data.draw(st.booleans(), label="validate_writes")
        monitor = None if level is None else InvariantMonitor(level)
        with ParEngine(p, backend=backend, validate_writes=validate) as engine:
            eg = ElimGraph.build(g, engine, monitor=monitor)
            got = (dfs if kind == DFS else bfs)(eg, s, 0, engine)
        want = (seq_dfs if kind == DFS else seq_bfs)(g, s, 0)
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
        res, _, eg = run(kind, g, s, monitor=monitor)
        visited = [v for v, t in enumerate(res.traversal) if t is not None]
        # the monitor raises on any double elimination; count the singles
        assert monitor.stats["eliminations"] == sum(eg.indeg[v] for v in visited)


class TestTreeValidity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_parents_span_visited_set(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 14)
        g = gnm(n, rng.randrange(0, min(3 * n, n * (n - 1)) + 1), seed)
        s = rng.randrange(n)
        for kind in (DFS, BFS):
            res, _, _ = run(kind, g, s)
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
        forged = TraversalResult.collect([0, 2, 1], [None, 0, 1], [None] * 3, 3)
        report = compare_results(driver, forged)
        assert not report.ok
        assert report.mismatches[0] == "traversal[1]: driver=1 oracle=2"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_against_oracle(path(2), 0, "iddfs")


class TestSweep:
    def test_forest_numbering_continuous(self):
        g = Graph.from_adjacency([[1], [], [3], [], []])
        res = sweep(ElimGraph.build(g), DFS)
        assert list(res.traversal) == [0, 1, 2, 3, 4]
        assert list(res.parent) == [None, 0, None, 2, None]
        assert res.next_number == 5

    def test_bfs_sweep_distances_per_component(self):
        g = Graph.from_adjacency([[1], [], [3], [], []])
        res = sweep(ElimGraph.build(g), BFS)
        assert list(res.distance) == [0, 1, 0, 1, 0]

    def test_restart_order_is_id_order(self):
        g = Graph.from_adjacency([[], [0], [1]])
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


class TestTrace:
    def test_trace_lines_format_and_order(self):
        lines = []
        eg = ElimGraph.build(sample9())
        dfs(eg, 0, trace=lines.append)
        assert len(lines) == 9
        assert lines[0] == "visit 0 number=0 level=0"
        assert lines[1] == "visit 1 number=1 level=1"
        order = [int(line.split()[1]) for line in lines]
        assert order == [0, 1, 5, 7, 8, 4, 3, 6, 2]

    def test_bfs_trace_levels_match_distances(self):
        lines = []
        eg = ElimGraph.build(sample9())
        res = bfs(eg, 0, trace=lines.append)
        for line in lines:
            parts = dict(tok.split("=") for tok in line.split()[2:])
            v = int(line.split()[1])
            assert int(parts["level"]) == res.distance[v]
            assert int(parts["number"]) == res.traversal[v]
