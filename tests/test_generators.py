import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    TooManyArcs,
    complete,
    gnm,
    layered_dag,
    path,
    sample9,
    serialize_edge_list,
    star_out,
)


class TestGnm:
    def test_edgeless(self):
        g = gnm(5, 0, 123)
        assert g.num_vertices == 5
        assert g.num_arcs == 0

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_max_arcs_is_complete_digraph(self, seed):
        g = gnm(4, 12, seed)
        for u in range(4):
            assert sorted(g.out_lists[u]) == [v for v in range(4) if v != u]

    def test_deterministic(self):
        a = serialize_edge_list(gnm(100, 5000, 42))
        b = serialize_edge_list(gnm(100, 5000, 42))
        assert a == b

    def test_seed_changes_output(self):
        assert gnm(30, 60, 1) != gnm(30, 60, 2)

    def test_too_many_arcs(self):
        with pytest.raises(TooManyArcs) as exc:
            gnm(4, 13, 0)
        assert exc.value.limit == 12

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            gnm(0, 0, 0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError, match=r"^m must be at least 0, got -1$"):
            gnm(3, -1, 0)
        assert gnm(3, 0, 0).num_arcs == 0

    @given(st.integers(1, 40), st.integers(0, 10_000), st.data())
    @settings(max_examples=50, deadline=None)
    def test_exact_counts_no_self_loops(self, n, seed, data):
        m = data.draw(st.integers(0, n * (n - 1)))
        g = gnm(n, m, seed)
        assert g.num_vertices == n
        assert g.num_arcs == m  # average degree m/n exact by construction
        arcs = [(u, v) for u, targets in enumerate(g.out_lists) for v in targets]
        assert len(set(arcs)) == m
        assert all(u != v for u, v in arcs)

    def test_sparse_and_dense_sampling_agree_at_boundary(self):
        """Arc sets on both sides of a density step stay plausible; the
        representation switch must never change a given (n, m, seed) draw."""
        for m in (0, 1, 44, 45, 46, 90):
            g1 = gnm(10, m, 7)
            g2 = gnm(10, m, 7)
            assert g1 == g2
            assert g1.num_arcs == m


class TestFixedFamilies:
    def test_path3(self):
        assert [list(path(3).out_lists[u]) for u in range(3)] == [[1], [2], []]

    def test_complete3(self):
        g = complete(3)
        assert g.num_arcs == 6
        assert [list(g.out_lists[u]) for u in range(3)] == [[1, 2], [0, 2], [0, 1]]

    def test_star_out(self):
        g = star_out(5)
        assert list(g.out_lists[0]) == [1, 2, 3, 4]
        assert all(len(g.out_lists[u]) == 0 for u in range(1, 5))

    def test_single_vertex_families(self):
        assert path(1).num_arcs == 0
        assert complete(1).num_arcs == 0
        assert star_out(1).num_arcs == 0

    @pytest.mark.parametrize("family", [path, complete, star_out])
    def test_size_zero_rejected(self, family):
        with pytest.raises(ValueError):
            family(0)


class TestLayeredDag:
    def test_shape_3x2(self):
        g = layered_dag(3, 2)
        assert g.num_vertices == 6
        assert g.num_arcs == 9

    def test_arc_set_fixed_by_shape(self):
        a, b = layered_dag(4, 3, seed=1), layered_dag(4, 3, seed=2)
        assert a != b  # seed shuffles adjacency order
        for u in range(a.num_vertices):
            assert sorted(a.out_lists[u]) == sorted(b.out_lists[u])

    def test_layer_targets(self):
        g = layered_dag(2, 3, seed=0)
        for u in (0, 1):
            assert sorted(g.out_lists[u]) == [2, 3]
        for u in (2, 3):
            assert sorted(g.out_lists[u]) == [4, 5]
        for u in (4, 5):
            assert len(g.out_lists[u]) == 0

    def test_deterministic(self):
        assert layered_dag(5, 4, 9) == layered_dag(5, 4, 9)

    def test_degenerate_sizes(self):
        assert layered_dag(1, 1).num_vertices == 1
        assert layered_dag(3, 1).num_arcs == 0
        with pytest.raises(ValueError):
            layered_dag(0, 2)
        with pytest.raises(ValueError):
            layered_dag(2, 0)


def test_sample9_counts():
    g = sample9()
    assert (g.num_vertices, g.num_arcs) == (9, 24)
