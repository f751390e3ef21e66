import hashlib
import random

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
        """Both sides of half density, where gnm once switched from a dict
        of displaced entries to a materialized pair space, draw one way."""
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


# SHA-256 of serialize_edge_list for each family, recorded from the
# generators as they were when they still called randrange and shuffle.  A
# changed draw would silently change every benchmark input and every
# counted metric, so any difference here is a bug, not a value to update.
GOLDEN = [
    (gnm, (5, 0, 3), "b6389159960d2522854674449b0124aa3b2302556663a40cf47c7225c47f71ca"),
    (gnm, (1, 0, 0), "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (gnm, (256, 2000, 7), "a1c8082b78d5eadf96b2f6165be308840d097681d695a0774ae2049519948f26"),
    (gnm, (4, 12, 5), "873257aa44902b6d63e20a1c734f9afbb2befd230231b92467913b2668a137f0"),
    (gnm, (16, 200, 11), "b30b2350e56a91b9e1f634a4184d8062c44e31b6f6e53f5de686f18a872ce287"),
    (gnm, (20000, 400000, 1), "e932048cb07d9fbaddf1d0aef18fdda37ee94d7b75f3ead0d39d75e65ddc3d1b"),
    (layered_dag, (64, 64, 1), "cc70cd255526ae7264ecf5cce0edbd6a008c95278a279c1cceb30c9fa384d274"),
    (layered_dag, (1, 8, 3), "c56d604590dddf4dcb58849e81a8414a2d3c1522e553123a57fd4d03006bcb89"),
    (layered_dag, (16, 1, 3), "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (path, (1,), "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (path, (100000,), "be52b904d00293095a2a0e9ee22ec94fa6b18534615908c71e78a083cd6268c2"),
    (complete, (30,), "3f6415fd6550876fcb24a47643a4789966bcdde44423f2f3b9f369a7a49dc855"),
    (star_out, (5,), "65cdbbaf7bdcbe7e5699e145abe31605d104e685455bef7f8d8e618d6247c5ef"),
    (sample9, (), "6094c8065daa613fcbb012e988996142a005ee587751db16714af465702c550d"),
]


@pytest.mark.parametrize("family, args, digest", GOLDEN,
                         ids=[f"{f.__name__}{args}" for f, args, _ in GOLDEN])
def test_golden_digest(family, args, digest):
    text = serialize_edge_list(family(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def randrange_gnm(n, m, seed):
    """gnm's adjacency as its two loops once drew it with ``randrange``: a
    materialized pair space when m is at least half of n(n-1), else a dict
    of the entries displaced so far."""
    limit = n * (n - 1)
    rng = random.Random(seed)
    lists = [[] for _ in range(n)]
    if m * 2 >= limit:
        pool = list(range(limit))
        for i in range(m):
            j = rng.randrange(i, limit)
            pool[i], pool[j] = pool[j], pool[i]
            u, w = divmod(pool[i], n - 1)
            lists[u].append(w + (w >= u))
    else:
        moved = {}
        for i in range(m):
            j = rng.randrange(i, limit)
            k = moved.get(j, j)
            moved[j] = moved.get(i, i)
            u, w = divmod(k, n - 1)
            lists[u].append(w + (w >= u))
    return [tuple(ts) for ts in lists]


def shuffle_layered(width, depth, seed):
    """layered_dag's adjacency as ``random.shuffle`` once ordered it."""
    rng = random.Random(seed)
    lists = []
    for layer in range(depth):
        for _ in range(width):
            targets = []
            if layer < depth - 1:
                targets = list(range((layer + 1) * width, (layer + 2) * width))
                rng.shuffle(targets)
            lists.append(tuple(targets))
    return lists


@st.composite
def gnm_params(draw):
    """n, seed, and an m on either side of half density, both edges included."""
    n = draw(st.integers(1, 24))
    limit = n * (n - 1)
    half = limit // 2
    m = draw(st.one_of(st.integers(0, half), st.integers(half, limit),
                       st.sampled_from([0, half, (limit + 1) // 2, limit])))
    return n, m, draw(st.integers(0, 2**64))


class TestSameDrawsAsRandom:
    """The generators take only ``getrandbits``; on the running interpreter
    they must give what ``randrange`` and ``shuffle`` gave."""

    @given(gnm_params())
    @settings(max_examples=200, deadline=None)
    def test_gnm(self, params):
        assert list(gnm(*params).out_lists) == randrange_gnm(*params)

    @pytest.mark.parametrize("n, m", [(300, 40000), (300, 50000), (2000, 9000)])
    def test_gnm_larger(self, n, m):
        """Bounds beyond 2**16 on both sides of half density, and a sparse
        draw from about four million pairs."""
        for seed in (0, 1, 2):
            assert list(gnm(n, m, seed).out_lists) == randrange_gnm(n, m, seed)

    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**64))
    @settings(max_examples=100, deadline=None)
    def test_layered_dag(self, width, depth, seed):
        assert list(layered_dag(width, depth, seed).out_lists) == shuffle_layered(
            width, depth, seed)
