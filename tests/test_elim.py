import random

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    NIL,
    AlreadyEliminated,
    ElimGraph,
    Graph,
    InvariantMonitor,
    PARANOID,
    ParEngine,
    SIMULATED,
    THREADED,
    gnm,
    sample9,
)


def brute_force_in_tables(g):
    tables = [[] for _ in range(g.num_vertices)]
    for u in range(g.num_vertices):
        for i, v in enumerate(g.targets(u)):
            tables[v].append((u, i))
    return tables


def in_table(eg, v):
    """v's in-table as (source, slot) pairs, read through the arc ids."""
    arcs = eg.in_arc[eg.in_off[v]:eg.in_off[v + 1]]
    return [(eg.src[a], a - eg.off[eg.src[a]]) for a in arcs]


def arcs_of(eg, u):
    return range(eg.off[u], eg.off[u + 1])


class TestBuild:
    def test_sample_in_table_vertex3(self):
        eg = ElimGraph.build(sample9())
        assert eg.indeg[3] == 5
        assert in_table(eg, 3) == [(0, 2), (2, 1), (4, 1), (5, 1), (8, 1)]

    def test_sample_in_table_vertex7(self):
        eg = ElimGraph.build(sample9())
        assert eg.indeg[7] == 1
        assert in_table(eg, 7) == [(5, 0)]

    def test_fresh_links(self):
        eg = ElimGraph.build(sample9())
        for u in range(eg.n):
            arcs = arcs_of(eg, u)
            assert eg.first[u] == arcs.start
            assert [eg.nxt[a] for a in arcs] == [a + 1 for a in arcs]
            assert [eg.prv[a] for a in arcs] == ([NIL] + list(arcs)[:-1])[:len(arcs)]
            assert [eg.src[a] for a in arcs] == [u] * len(arcs)
            assert eg.traversal[u] is None
            assert eg.distance[u] is None
            assert eg.parent[u] is None

    def test_in_tables_ascending_by_source(self):
        eg = ElimGraph.build(sample9())
        for v in range(eg.n):
            sources = [u for u, _ in in_table(eg, v)]
            assert sources == sorted(sources)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_in_tables_match_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 30)
        m = rng.randrange(0, n * (n - 1) + 1)
        g = gnm(n, m, seed)
        eg = ElimGraph.build(g)
        expected = brute_force_in_tables(g)
        # the sequential outer loop makes each in-table ascend by source id
        assert [in_table(eg, v) for v in range(n)] == [sorted(t) for t in expected]
        assert list(eg.indeg) == [len(t) for t in expected]

    def test_build_cost_sample_p1(self):
        with ParEngine(1) as eng:
            ElimGraph.build(sample9(), eng)
        rep = eng.report()
        assert rep.sync_steps == 10  # one init block + one block per vertex
        assert rep.work == 9 + 24  # init over n, then one body per arc
        assert rep.time_steps == 33
        assert rep.seq_steps == 0

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_build_cost_formula(self, p):
        g = sample9()
        with ParEngine(p) as eng:
            ElimGraph.build(g, eng)
        rep = eng.report()
        n = g.num_vertices
        expected = -(-n // p) + sum(
            -(-g.outdegree(u) // p) for u in range(n)
        )
        assert rep.time_steps == expected
        assert rep.sync_steps == n + 1

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("p", [1, 3])
    def test_build_identical_across_backends(self, backend, p):
        base = ElimGraph.build(sample9())
        with ParEngine(p, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(sample9(), eng)
        assert eg.dump() == base.dump()
        for name in ("in_off", "in_arc", "src", "nxt", "prv", "first", "indeg"):
            assert getattr(eg, name) == getattr(base, name)


class TestEliminate:
    def test_unlink_middle_slot(self):
        eg = ElimGraph.build(sample9())
        a0, a1, a2, _ = arcs_of(eg, 0)
        eg.eliminate(a1)
        assert eg.live_targets(0) == [1, 3, 4]
        assert eg.nxt[a0] == a2
        assert eg.prv[a2] == a0

    def test_then_unlink_head(self):
        eg = ElimGraph.build(sample9())
        a0, a1, a2, _ = arcs_of(eg, 0)
        eg.eliminate(a1)
        eg.eliminate(a0)
        assert eg.first[0] == a2
        assert eg.live_targets(0) == [3, 4]
        assert eg.prv[a2] == NIL

    def test_exhausting_one_arc_list(self):
        eg = ElimGraph.build(Graph.from_adjacency([[1], []]))
        eg.eliminate(0)
        assert eg.first[0] == 1 == eg.off[1]
        assert eg.first_live_target(0) is None

    def test_out_array_unchanged(self):
        eg = ElimGraph.build(sample9())
        eg.eliminate(eg.off[0] + 1)
        assert list(eg.tgt[eg.off[0]:eg.off[1]]) == [1, 2, 3, 4]

    def test_double_elimination_rejected(self):
        eg = ElimGraph.build(sample9())
        eg.eliminate(eg.off[0] + 1)
        with pytest.raises(AlreadyEliminated) as exc:
            eg.eliminate(eg.off[0] + 1)
        assert (exc.value.source, exc.value.slot) == (0, 1)

    def test_dead_head_rejected(self):
        eg = ElimGraph.build(sample9())
        eg.eliminate(eg.off[0])
        with pytest.raises(AlreadyEliminated):
            eg.eliminate(eg.off[0])

    def test_random_elimination_order_preserves_live_order(self):
        """Live sequence = original order minus eliminated slots, any order."""
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 12)
            g = gnm(n, rng.randrange(0, n * (n - 1) + 1), rng.randrange(10**6))
            eg = ElimGraph.build(g)
            doomed = [a for a in range(g.num_arcs) if rng.random() < 0.5]
            rng.shuffle(doomed)
            for a in doomed:
                eg.eliminate(a)
            dead = set(doomed)
            for u in range(n):
                expected = [
                    t
                    for a, t in zip(arcs_of(eg, u), g.targets(u))
                    if a not in dead
                ]
                assert eg.live_targets(u) == expected
                assert eg.live_arcs(u) == [a for a in arcs_of(eg, u) if a not in dead]


class TestEliminateIncoming:
    def test_sample_vertex0(self):
        eg = ElimGraph.build(sample9())
        with ParEngine(2) as eng:
            eg.eliminate_incoming(0, eng)
        assert eng.report().sync_steps == 1
        assert eg.first[1] == eg.off[1]  # target 0 is slot 1 of 1's list [5,0]
        assert eg.live_targets(1) == [5]
        assert eg.live_targets(2) == [5, 3, 6]
        assert eg.live_targets(3) == [6, 5]
        assert eg.live_targets(4) == [3, 6]

    def test_zero_indegree_still_synchronizes(self):
        eg = ElimGraph.build(Graph.from_adjacency([[1], [], []]))
        with ParEngine(4) as eng:
            eg.eliminate_incoming(2, eng)
        rep = eng.report()
        assert rep.sync_steps == 1
        assert rep.work == 0
        assert eg.live_targets(0) == [1]

    def test_self_loop(self):
        eg = ElimGraph.build(Graph.from_adjacency([[0]]))
        with ParEngine(1) as eng:
            eg.eliminate_incoming(0, eng)
        assert eg.first[0] == 1 == eg.off[1]

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_write_validation_accepts_legal_blocks(self, backend):
        g = sample9()
        with ParEngine(3, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(g, eng)
            for v in (3, 0, 6):
                eg.eliminate_incoming(v, eng)


class TestFirstLiveTarget:
    def test_fresh_vertex5(self):
        eg = ElimGraph.build(sample9())
        assert eg.first_live_target(5) == 7

    def test_after_eliminating_into_7(self):
        eg = ElimGraph.build(sample9())
        eg.eliminate_incoming(7, ParEngine())
        assert eg.first_live_target(5) == 3

    def test_exhausted_vertex(self):
        eg = ElimGraph.build(Graph.from_adjacency([[]]))
        assert eg.first_live_target(0) is None


class TestInspection:
    def test_vertex_view(self):
        eg = ElimGraph.build(sample9())
        arcs = arcs_of(eg, 3)
        assert len(arcs) == 3
        assert eg.indeg[3] == 5
        assert [eg.tgt[a] for a in arcs] == [6, 5, 0]
        assert eg.first[3] == arcs.start
        assert eg.traversal[3] is None

    def test_dump_golden(self):
        eg = ElimGraph.build(Graph.from_adjacency([[1, 2], [2], []]))
        eg.eliminate(0)
        assert eg.dump() == (
            "0: live=[2] first=1 indeg=0\n"
            "1: live=[2] first=0 indeg=1\n"
            "2: live=[] first=0 indeg=2\n"
        )


class TestStructuralIntegrity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_links_stay_consistent_under_random_elimination(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 16)
        g = gnm(n, rng.randrange(0, min(4 * n, n * (n - 1)) + 1), seed)
        monitor = InvariantMonitor(PARANOID)
        eg = ElimGraph.build(g, monitor=monitor)
        arcs = list(range(g.num_arcs))
        rng.shuffle(arcs)
        for a in arcs[: len(arcs) // 2]:
            eg.eliminate(a)
            monitor.verify_structure()
