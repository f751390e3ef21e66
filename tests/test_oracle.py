import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    ElimGraph,
    Graph,
    InvalidStart,
    bfs,
    complete,
    dfs,
    gnm,
    path,
    sample9,
    seq_bfs,
    seq_dfs,
)


def hop_distances(g, s):
    """Bellman-Ford-style relaxation; independent of any queue or stack."""
    n = g.num_vertices
    dist = [None] * n
    dist[s] = 0
    for _ in range(n):
        changed = False
        for u in range(n):
            if dist[u] is None:
                continue
            for v in g.out_lists[u]:
                if dist[v] is None or dist[v] > dist[u] + 1:
                    dist[v] = dist[u] + 1
                    changed = True
        if not changed:
            break
    return dist


class TestSeqDfs:
    def test_sample_matches_published_numbering(self):
        res = seq_dfs(sample9(), 0)
        assert {v: t for v, t in enumerate(res.traversal)} == {
            0: 0, 1: 1, 5: 2, 7: 3, 8: 4, 4: 5, 3: 6, 6: 7, 2: 8,
        }

    def test_complete3(self):
        res = seq_dfs(complete(3), 0)
        assert list(res.traversal) == [0, 1, 2]
        assert list(res.parent) == [None, 0, 1]

    def test_edgeless_from_2(self):
        res = seq_dfs(Graph([[], [], []]), 2)
        assert list(res.traversal) == [None, None, 0]
        assert res.visited_count == 1

    def test_number_offset(self):
        res = seq_dfs(path(3), 1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7

    def test_dfs_leaves_distance_unset(self):
        res = seq_dfs(sample9(), 0)
        assert set(res.distance) == {None}

    def test_invalid_start(self):
        with pytest.raises(InvalidStart):
            seq_dfs(path(3), 3)
        with pytest.raises(InvalidStart):
            seq_dfs(path(3), -1)

    def test_deep_graph_no_recursion_limit(self):
        res = seq_dfs(path(5000), 0)
        assert res.visited_count == 5000

    def test_deep_search_frame_is_one_iterator(self):
        """Each open vertex costs its stack one iterator, no (vertex,
        iterator) tuple, and the visited mark one list slot: a path(20000)
        search, n frames deep, peaks at most 64 B per vertex above what it
        keeps."""
        n = 20000
        g = path(n)
        seq_dfs(g, 0)  # warm the caches and code paths the search touches
        gc.collect()
        tracemalloc.start()
        try:
            res = seq_dfs(g, 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.visited_count == n
        assert peak - kept <= 64 * n


class TestSeqBfs:
    def test_sample_matches_published_numbering(self):
        res = seq_bfs(sample9(), 0)
        assert list(res.traversal) == list(range(9))
        assert list(res.distance) == [0, 1, 1, 1, 1, 2, 2, 3, 4]
        assert list(res.parent) == [None, 0, 0, 0, 0, 1, 2, 5, 7]

    def test_complete3_distances(self):
        res = seq_bfs(complete(3), 0)
        assert list(res.distance) == [0, 1, 1]

    def test_path_distances(self):
        res = seq_bfs(path(4), 0)
        assert list(res.distance) == [0, 1, 2, 3]

    def test_number_offset(self):
        res = seq_bfs(path(3), 1, a=5)
        assert list(res.traversal) == [None, 5, 6]
        assert res.next_number == 7

    def test_invalid_start(self):
        with pytest.raises(InvalidStart):
            seq_bfs(path(3), 7)

    @given(st.integers(0, 10_000), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_distances_match_brute_force(self, seed, s):
        g = gnm(8, (seed * 7) % 57, seed)
        res = seq_bfs(g, s)
        assert list(res.distance) == hop_distances(g, s)


class TestNumberingInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_numbers_consecutive_from_a(self, seed):
        n = 1 + seed % 12
        g = gnm(n, (seed // 13) % (n * (n - 1) + 1), seed)
        s = seed % n
        a = seed % 50
        for run in (seq_dfs, seq_bfs):
            res = run(g, s, a)
            numbers = sorted(t for t in res.traversal if t is not None)
            assert numbers == list(range(a, a + res.visited_count))
            assert res.next_number == a + res.visited_count
            assert res.traversal[s] == a

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_parents_visited_before_children(self, seed):
        n = 2 + seed % 10
        g = gnm(n, (seed // 7) % (n * (n - 1) + 1), seed)
        for run in (seq_dfs, seq_bfs):
            res = run(g, seed % n)
            for v, parent in enumerate(res.parent):
                if parent is None:
                    continue
                assert res.traversal[parent] < res.traversal[v]
                if run is seq_bfs:
                    assert res.distance[v] == res.distance[parent] + 1


class TestSerialization:
    def test_golden_lines(self):
        res = seq_bfs(path(3), 1, a=5)
        assert res.serialize() == "0 - - -\n1 5 - 0\n2 6 1 1\n"

    def test_visit_order_helper(self):
        res = seq_dfs(sample9(), 0)
        assert res.visited() == [0, 1, 5, 7, 8, 4, 3, 6, 2]


def comb(k):
    """A spine 0 -> 1 -> ... -> k-1 whose vertex i also leads, after its
    spine arc, to a two-vertex tooth with arcs back up to i // 2 and to 0.
    A DFS goes k deep down the spine first, then on the way back resumes
    every spine frame to descend into its tooth."""
    spine = [[i + 1, k + 2 * i] if i < k - 1 else [k + 2 * i] for i in range(k)]
    teeth = [ts for i in range(k) for ts in ([i // 2, k + 2 * i + 1], [0])]
    return Graph(spine + teeth)


class TestNetworkx:
    """networkx as a third reference, sharing no code with either side."""

    @staticmethod
    def check(nx, g, kind, label):
        seq, driver = (seq_dfs, dfs) if kind == "dfs" else (seq_bfs, bfs)
        G = nx.DiGraph()
        G.add_nodes_from(range(g.num_vertices))
        G.add_edges_from((u, v) for u in range(g.num_vertices) for v in g.out_lists[u])
        if kind == "dfs":
            order = list(nx.dfs_preorder_nodes(G, 0))
            edges = list(nx.dfs_edges(G, 0))
        else:
            edges = list(nx.bfs_edges(G, 0))
            order = [0] + [v for _, v in edges]
        parents = {v: u for u, v in edges}
        want = [parents.get(v) for v in range(g.num_vertices)]
        for result in (seq(g, 0), driver(ElimGraph.build(g), 0)):
            assert result.visited() == order, label
            assert list(result.parent) == want, label

    @pytest.mark.parametrize("kind", ["dfs", "bfs"])
    def test_visit_order_and_parents_match(self, kind):
        nx = pytest.importorskip("networkx")
        for seed in range(200):
            self.check(nx, gnm(40, 200, seed), kind, seed)

    @pytest.mark.parametrize("graph", ["comb", "complete"])
    @pytest.mark.parametrize("kind", ["dfs", "bfs"])
    def test_deep_and_dense_graphs_match(self, kind, graph):
        """A DFS 1000 deep, where each spine frame resumes after a
        backtrack that read its vertex from ``parent``, and complete(12),
        where every frame resumes after each of its descents."""
        nx = pytest.importorskip("networkx")
        g = comb(1000) if graph == "comb" else complete(12)
        self.check(nx, g, kind, graph)
