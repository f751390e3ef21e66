import gc
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from arcelim import (
    AlreadyEliminated,
    BFS,
    DFS,
    DisjointWriteViolation,
    ElimGraph,
    Graph,
    InvariantMonitor,
    PARANOID,
    ParEngine,
    SIMULATED,
    THREADED,
    bfs,
    dfs,
    gnm,
    path,
    sample9,
    seq_dfs,
    star_out,
    sweep,
)
from arcelim.elim import CELLS, RUN, cell_name
from arcelim.graph import ID
from arcelim.result import ABSENT


def brute_force_in_tables(g):
    tables = [[] for _ in range(g.num_vertices)]
    for u in range(g.num_vertices):
        for i, v in enumerate(g.out_lists[u]):
            tables[v].append((u, i))
    return tables


def in_table(eg, v):
    """v's in-table as (source, slot) pairs, each arc's source found from
    ``off``."""
    arcs = eg.in_arc[eg.in_off[v]:eg.in_off[v + 1]]
    sources = [bisect_right(eg.off, a) - 1 for a in arcs]
    return [(u, a - eg.off[u]) for u, a in zip(sources, arcs)]


def arcs_of(eg, u):
    return range(eg.off[u], eg.off[u + 1])


def indegree(eg, v):
    return eg.in_off[v + 1] - eg.in_off[v]


class TestBuild:
    def test_sample_in_table_vertex3(self):
        eg = ElimGraph.build(sample9())
        assert indegree(eg, 3) == 5
        assert in_table(eg, 3) == [(0, 2), (2, 1), (4, 1), (5, 1), (8, 1)]

    def test_sample_in_table_vertex7(self):
        eg = ElimGraph.build(sample9())
        assert indegree(eg, 7) == 1
        assert in_table(eg, 7) == [(5, 0)]

    def test_fresh_links(self):
        eg = ElimGraph.build(sample9())
        assert not arcs_of(eg, 6)  # the sink: its head node links to itself
        for u in range(eg.n):
            arcs = arcs_of(eg, u)
            # one circle per vertex: head node, the arcs in order, head node
            circle = [eg.m + u, *arcs, eg.m + u]
            assert [eg.nxt[a] for a in circle[:-1]] == circle[1:]
            assert [eg.prv[a] for a in circle[1:]] == circle[:-1]
            assert eg.traversal[u] == ABSENT
            assert eg.distance[u] == ABSENT
            assert eg.parent[u] == ABSENT

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
        assert [indegree(eg, v) for v in range(n)] == [len(t) for t in expected]

    def test_empty_graph(self):
        with ParEngine(1, validate_writes=True) as eng:
            eg = ElimGraph(Graph([]), eng)
        assert eg.in_off == array(ID, [0])
        assert len(eg.in_arc) == len(eg.nxt) == len(eg.prv) == 0
        assert eng.report().sync_steps == 1  # the empty init block

    def test_lone_self_loop(self):
        with RecordingEngine(1, validate_writes=True) as eng:
            eg = ElimGraph(Graph([[0]]), eng)
        assert eg.in_off == array(ID, [0, 1]) and eg.in_arc == array(ID, [0])
        # arc 0 and head node 1 form one circle
        assert list(eg.nxt) == list(eg.prv) == [1, 0]
        # the init step links both ends of the list; the arc block only
        # fills the in-table
        assert eng.cells == [[("head", 0)], [("in", 0)]]
        monitor = InvariantMonitor(PARANOID)
        assert list(dfs(ElimGraph(Graph([[0]]), monitor=monitor), 0).traversal) == [0]
        assert monitor.stats["eliminations"] == 1

    def test_last_vertex_has_incoming_arcs(self):
        """The last vertex's cursor is the last cell of the cursor copy,
        which holds n of ``in_off``'s n + 1 cells; its in-table must end
        at m."""
        eg = ElimGraph(Graph([[2], [0, 2], []]))
        assert eg.in_off == array(ID, [0, 1, 1, 3])
        assert in_table(eg, 2) == [(0, 0), (1, 1)]
        assert [indegree(eg, v) for v in range(3)] == [1, 0, 2]

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
            -(-len(g.out_lists[u]) // p) for u in range(n)
        )
        assert rep.time_steps == expected
        assert rep.sync_steps == n + 1

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("p", [1, 3])
    def test_build_identical_across_backends(self, backend, p):
        base = ElimGraph.build(sample9())
        with ParEngine(p, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(sample9(), eng)
        # the constructor is the build: same arrays, same counted cost
        with ParEngine(p, backend=backend, validate_writes=True) as direct_eng:
            direct = ElimGraph(sample9(), direct_eng)
        for name in ("in_off", "in_arc", "nxt", "prv"):
            assert getattr(direct, name) == getattr(eg, name)
        assert direct_eng.report() == eng.report()
        assert dfs(ElimGraph(sample9()), 0) == seq_dfs(sample9(), 0)
        for name in ("in_off", "in_arc", "nxt", "prv"):
            assert getattr(eg, name) == getattr(base, name)


def fresh_links(g):
    """The live lists of a fresh build, made directly: each vertex's head
    node, its arcs in id order and the head node again form one circle."""
    n, m = g.num_vertices, g.num_arcs
    nxt, prv = [None] * (m + n), [None] * (m + n)
    for u in range(n):
        circle = [m + u, *range(g.off[u], g.off[u + 1]), m + u]
        for a, b in pairwise(circle):
            nxt[a] = b
            prv[b] = a
    return nxt, prv


# graphs whose lists cross the pre-pass's run boundaries, at ids RUN and
# RUN + 1, or hold 0, 1 or 2 arcs, or start or end with an empty list
LAYOUT_GRAPHS = {
    **{f"star_out(RUN{k:+d})": (lambda k=k: star_out(RUN + k)) for k in (-1, 0, 1, 2, 3)},
    "gnm(3000, 20000)": lambda: gnm(3000, 20000, seed=5),
    "path(9000)": lambda: path(9000),
    "m=0": lambda: Graph([[], []]),
    "m=1": lambda: Graph([[1], []]),
    "m=2": lambda: Graph([[1], [0]]),
    "one list of 2": lambda: Graph([[0, 1], []]),
    "empty first and last": lambda: Graph([[], [0, 2, 3], [1], []]),
    "empty first, long": lambda: Graph([[]] + [list(range(RUN + 2))] + [[]] * RUN),
}


class TestLayout:
    """The pre-pass lays every list out in id order and the init block
    closes each circle, so a fresh build has the circles and in-tables of
    the lists themselves, on every engine setting."""

    @pytest.mark.parametrize("backend,p", [(SIMULATED, 1), (SIMULATED, 3), (THREADED, 3)])
    @pytest.mark.parametrize("validate_writes", [False, True])
    @pytest.mark.parametrize("name", LAYOUT_GRAPHS)
    def test_fresh_circles_and_in_tables(self, name, backend, p, validate_writes):
        g = LAYOUT_GRAPHS[name]()
        with ParEngine(p, backend=backend, validate_writes=validate_writes) as eng:
            eg = ElimGraph(g, eng)
        nxt, prv = fresh_links(g)
        assert list(eg.nxt) == nxt
        assert list(eg.prv) == prv
        expected = brute_force_in_tables(g)
        assert [in_table(eg, v) for v in range(g.num_vertices)] == expected
        assert eng.report().sync_steps == g.num_vertices + 1

    def test_build_log_golden(self):
        """The init block logs one ``head`` cell per vertex, for the head
        node and its list's two end links; each arc block logs one ``in``
        cell per arc, its target's slot and cursor, and nothing else."""
        with RecordingEngine(3, validate_writes=True) as eng:
            ElimGraph(sample9(), eng)
        assert eng.cells == SAMPLE_BUILD_CELLS


# the cells each build block logs for sample9, in order: the init block,
# then vertex u's arc block naming u's targets, (1, 2, 3, 4) for vertex 0
SAMPLE_BUILD_CELLS = [
    [("head", 0), ("head", 1), ("head", 2), ("head", 3), ("head", 4), ("head", 5),
     ("head", 6), ("head", 7), ("head", 8)],
    [("in", 1), ("in", 2), ("in", 3), ("in", 4)],
    [("in", 5), ("in", 0)],
    [("in", 5), ("in", 3), ("in", 6), ("in", 0)],
    [("in", 6), ("in", 5), ("in", 0)],
    [("in", 0), ("in", 3), ("in", 6)],
    [("in", 7), ("in", 3), ("in", 2), ("in", 1)],
    [],
    [("in", 8), ("in", 6)],
    [("in", 4), ("in", 3)],
]


class TestSharedAdjacency:
    """A search structure reads its graph's CSR arrays; it does not copy them."""

    def test_off_and_tgt_are_the_graphs_own(self):
        g = sample9()
        first, second = ElimGraph(g), ElimGraph(g)
        assert first.off is g.off and second.off is g.off
        assert first.tgt is g.tgt and second.tgt is g.tgt

    def test_in_off_is_the_graphs_own(self):
        """The in-table offsets depend on the graph alone: it counts them
        once, and every structure over it, on any engine, with or without
        a monitor, holds that one array."""
        g = sample9()
        in_off = g.in_off
        with ParEngine(3, backend=THREADED, validate_writes=True) as eng:
            structures = [ElimGraph(g), ElimGraph.build(g), ElimGraph(g, eng),
                          ElimGraph(g, monitor=InvariantMonitor(PARANOID))]
        assert all(eg.in_off is in_off for eg in structures)

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate", [False, True])
    def test_solves_leave_the_graph_arrays_as_they_were(self, backend, validate):
        """A build writes its in-table through a copy of the cursors, and
        no visit or ``eliminate`` writes to a graph array: ``off``, ``tgt``
        and ``in_off`` keep their cells through every kind of solve."""
        g = gnm(40, 150, 11)
        before = [array(ID, a) for a in (g.off, g.tgt, g.in_off)]
        for run in (dfs, bfs, None):
            with ParEngine(2, backend=backend, validate_writes=validate) as eng:
                eg = ElimGraph(g, eng)
                if run is None:
                    for a in (0, g.num_arcs // 2, g.num_arcs - 1):
                        eg.eliminate(a)
                else:
                    run(eg, 0, 0, eng)
            assert [g.off, g.tgt, g.in_off] == before

    def test_build_allocates_only_its_own_state(self):
        """The structure allocates its in-table and live lists and the
        result cells; ``in_off`` is the graph's, counted by the warm-up
        build, and the cursor copy is freed before the build returns."""
        g = gnm(2000, 20000, seed=1)
        ElimGraph(g)  # warm the caches and code paths the build touches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eg = ElimGraph(g)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        own = sum(sys.getsizeof(getattr(eg, name)) for name in
                  ("in_arc", "nxt", "prv", "traversal", "distance", "parent"))
        # a copy of the out-lists would add 4m + 4n = 88,000 bytes
        assert own <= kept <= own + 4096


    @pytest.mark.parametrize("g", [path(1000), gnm(300, 2000, seed=1), Graph([[]]), Graph([])],
                             ids=repr)
    def test_state_arrays_have_no_spare_room(self, g):
        """Every kept array, the structure's and the graph's offsets, is
        allocated at its exact size: an array grown from an iterator keeps
        room for more cells for the whole solve."""
        eg = ElimGraph(g)
        n, m = g.num_vertices, g.num_arcs
        for name, cells in (("in_off", n + 1), ("in_arc", m), ("nxt", m + n), ("prv", m + n),
                            ("traversal", n), ("distance", n), ("parent", n)):
            assert sys.getsizeof(getattr(eg, name)) == sys.getsizeof(array(ID, [0]) * cells), name
        for name in ("off", "in_off"):
            assert sys.getsizeof(getattr(g, name)) == sys.getsizeof(array(ID, [0]) * (n + 1)), name


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
        assert eg.nxt[eg.m] == a2
        assert eg.live_targets(0) == [3, 4]
        assert eg.prv[a2] == eg.m

    def test_exhausting_one_arc_list(self):
        eg = ElimGraph.build(Graph([[1], []]))
        eg.eliminate(0)
        assert eg.nxt[eg.m] == eg.m == eg.prv[eg.m]
        assert eg.live_targets(0) == []

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

    @pytest.mark.parametrize("arc", [-1, 24])
    def test_arc_out_of_range_rejected(self, arc):
        """sample9 has 24 arcs; an id below or past them is named, with the
        range, before any block is charged."""
        eng = ParEngine()
        eg = ElimGraph.build(sample9(), eng)
        built = eng.report()
        with pytest.raises(IndexError, match=rf"^arc {arc} out of range: the arcs are 0 <= arc < 24$"):
            eg.eliminate(arc)
        assert eng.report() == built

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate_writes", [False, True])
    def test_one_block_of_one_step(self, backend, validate_writes):
        with ParEngine(3, backend=backend, validate_writes=validate_writes) as eng:
            eg = ElimGraph.build(sample9(), eng)
            built = dict(eng.histogram)
            eg.eliminate(eg.off[0] + 1)
        assert eng.histogram == {**built, 1: built.get(1, 0) + 1}
        assert eg.live_targets(0) == [1, 3, 4]

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
                    for a, t in zip(arcs_of(eg, u), g.out_lists[u])
                    if a not in dead
                ]
                assert eg.live_targets(u) == expected
                assert eg.live_arcs(u) == [a for a in arcs_of(eg, u) if a not in dead]


class TestEliminateIncoming:
    def test_sample_vertex0(self):
        with ParEngine(2) as eng:
            eg = ElimGraph.build(sample9(), eng)
            built = eng.report()
            eg.eliminate_incoming(0)
        assert (eng.report() - built).sync_steps == 1
        assert eg.nxt[eg.m + 1] == eg.off[1]  # target 0 is slot 1 of 1's list [5,0]
        assert eg.live_targets(1) == [5]
        assert eg.live_targets(2) == [5, 3, 6]
        assert eg.live_targets(3) == [6, 5]
        assert eg.live_targets(4) == [3, 6]

    def test_zero_indegree_still_synchronizes(self):
        with ParEngine(4) as eng:
            eg = ElimGraph.build(Graph([[1], [], []]), eng)
            built = eng.report()
            eg.eliminate_incoming(2)
        rep = eng.report() - built
        assert rep.sync_steps == 1
        assert rep.work == 0
        assert eg.live_targets(0) == [1]

    def test_self_loop(self):
        eg = ElimGraph.build(Graph([[0]]))
        eg.eliminate_incoming(0)
        assert eg.nxt[eg.m] == eg.m == eg.prv[eg.m]

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_write_validation_accepts_legal_blocks(self, backend):
        g = sample9()
        with ParEngine(3, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(g, eng)
            for v in (3, 0, 6):
                eg.eliminate_incoming(v)


class TestWriteValidation:
    """A violation in a search structure's block names the cell as
    ``(name, index)``, and validating a solve costs no memory beyond an
    unvalidated one's peak."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_violation_names_the_cell(self, backend):
        """Vertex 2's in-table is forged to hold arcs 0 and 1, neighbours in
        vertex 0's list: both unlinks write the nxt of 0's head node, m + 0.
        At p=2 the driver's chunk, arc 0, runs first."""
        with ParEngine(2, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph(Graph([[1, 2], [2], [0]]), eng)
            lo = eg.in_off[2]
            eg.in_arc[lo], eg.in_arc[lo + 1] = 0, 1
            with pytest.raises(DisjointWriteViolation) as info:
                eg.eliminate_incoming(2)
        assert info.value.cell == ("nxt", 4)
        assert str(info.value) == "location ('nxt', 4) written twice within one parallel block"

    def test_violation_in_the_build_names_the_cell(self):
        """A graph whose shared ``tgt`` was overwritten to hold target 1
        twice in vertex 0's list: both steps of 0's arc block fill a slot
        of vertex 1's in-table."""
        g = Graph([[1, 2], [], []])
        g.tgt[1] = 1
        with pytest.raises(DisjointWriteViolation) as info:
            ElimGraph(g, ParEngine(validate_writes=True))
        assert info.value.cell == ("in", 1)

    @pytest.mark.parametrize("name", ["head", "in", "nxt", "prv"])
    def test_every_logged_kind_decodes_to_its_name(self, name):
        cell = cell_name(4 * 17 + CELLS.index(name))
        assert cell == (name, 17)
        assert str(DisjointWriteViolation(cell)) == (
            f"location ('{name}', 17) written twice within one parallel block")

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_log_holds_at_most_the_last_block(self, backend):
        """The engine clears the log before every block it validates and
        logs nothing otherwise: after a dfs, an unvalidated engine's log is
        empty and a validated one's holds only the last visit's block, two
        cells per incoming arc of the last vertex visited."""
        g = gnm(300, 3000, 1)
        for validate in (False, True):
            with ParEngine(2, backend=backend, validate_writes=validate) as eng:
                eg = ElimGraph(g, eng)
                last = dfs(eg, 0).visited()[-1]
            assert len(eng._write_log) == (2 * indegree(eg, last) if validate else 0)

    def test_validating_solve_peak_is_bounded_by_the_log(self):
        """Validation adds to a path(20000) bfs solve's peak no more than
        the log of its largest block, the init block's n cells, at 40 B a
        cell: one int and one log slot.  That log rises as logged, so it is
        checked with no sorted copy; a copy, a set check or a tuple per cell
        costs more."""
        n = 20000
        g = path(n)
        solve_peak(g, bfs, True)  # warm the caches and code paths the solve touches
        assert solve_peak(g, bfs, True)[0] - solve_peak(g, bfs, False)[0] <= 1.1 * 40 * n


# the arrays a search structure allocates and keeps; the result takes over
# the last three, and ``in_off`` is the graph's
KEPT = ("in_arc", "nxt", "prv", "traversal", "distance", "parent")


def solve_peak(g, run, validate=False):
    """The tracemalloc peak, in bytes, of one ``run`` solve of g from 0 at
    p=3, and the search structure it solved on."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ParEngine(3, validate_writes=validate) as eng:
            eg = ElimGraph(g, eng)
            run(eg, 0, 0, eng)
        return tracemalloc.get_traced_memory()[1] - before, eg
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_solve_peak_per_vertex(self):
        """Each vertex's number, parent and distance is one 4-byte cell, not
        a list slot, a tuple slot and an int object, and the in-table
        offsets are the graph's, counted by an earlier solve: a path(20000)
        bfs solve peaks at no more than 33 B per vertex."""
        n = 20000
        g = path(n)
        solve_peak(g, bfs)  # warm the caches and code paths the solve touches
        assert solve_peak(g, bfs)[0] <= 33 * n

    def test_first_solve_peak_per_vertex(self):
        """A graph's first solve also counts its in-table offsets, 4 B per
        vertex that the graph keeps, and frees the count and the cursor
        before the result cells are made: a fresh path(20000) bfs solve
        peaks at no more than 37 B per vertex."""
        n = 20000
        solve_peak(path(n), bfs)  # warm the code paths, on another graph
        assert solve_peak(path(n), bfs)[0] <= 37 * n

    @pytest.mark.parametrize("graph,run", [("gnm", dfs), ("path", dfs), ("path", bfs)])
    def test_solve_peak_is_the_kept_state(self, graph, run):
        """A solve allocates little beyond the arrays its structure keeps:
        no in-degree array, no copy of ``off`` and one 4-byte cell per dfs
        stack frame, which goes about n deep on both graphs, so at most
        10 B per vertex in all."""
        g = gnm(2000, 40000, seed=1) if graph == "gnm" else path(20000)
        solve_peak(g, run)  # warm the caches and code paths the solve touches
        peak, eg = solve_peak(g, run)
        kept = sum(sys.getsizeof(getattr(eg, name)) for name in KEPT)
        assert peak - kept <= 10 * g.num_vertices


class RecordingEngine(ParEngine):
    """Keeps every body passed to ``par_for`` and, when ``log_write`` is
    set, the cells each block logged, decoded to ``(name, index)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bodies = []
        self.cells = []

    def par_for(self, count, body):
        self.bodies.append(body)
        super().par_for(count, body)
        if self.log_write is not None:
            self.cells.append([cell_name(c) for c in self._write_log])


# the cells each visit's block logs in validation mode, one list per visit:
# each arc writes its predecessor's nxt and its successor's prv, and sample9
# has m = 24 arcs, so ids 24-32 are the head nodes of vertices 0-8
SAMPLE_DFS_CELLS = [
    [("nxt", 4), ("prv", 25), ("nxt", 8), ("prv", 26), ("nxt", 11), ("prv", 27),
     ("nxt", 28), ("prv", 14)],
    [("nxt", 24), ("prv", 1), ("nxt", 18), ("prv", 29)],
    [("nxt", 25), ("prv", 25), ("nxt", 26), ("prv", 7), ("nxt", 10), ("prv", 27)],
    [("nxt", 29), ("prv", 17)],
    [("nxt", 31), ("prv", 21)],
    [("nxt", 2), ("prv", 24), ("nxt", 32), ("prv", 23)],
    [("nxt", 1), ("prv", 24), ("nxt", 26), ("prv", 8), ("nxt", 28), ("prv", 15),
     ("nxt", 29), ("prv", 18), ("nxt", 32), ("prv", 32)],
    [("nxt", 26), ("prv", 26), ("nxt", 27), ("prv", 27), ("nxt", 28), ("prv", 28),
     ("nxt", 31), ("prv", 31)],
    [("nxt", 24), ("prv", 24), ("nxt", 29), ("prv", 29)],
]
SAMPLE_BFS_CELLS = [
    [("nxt", 4), ("prv", 25), ("nxt", 8), ("prv", 26), ("nxt", 11), ("prv", 27),
     ("nxt", 28), ("prv", 14)],
    [("nxt", 24), ("prv", 1), ("nxt", 18), ("prv", 29)],
    [("nxt", 24), ("prv", 2), ("nxt", 17), ("prv", 29)],
    [("nxt", 24), ("prv", 3), ("nxt", 6), ("prv", 8), ("nxt", 28), ("prv", 15),
     ("nxt", 16), ("prv", 29), ("nxt", 22), ("prv", 32)],
    [("nxt", 24), ("prv", 24), ("nxt", 32), ("prv", 32)],
    [("nxt", 25), ("prv", 25), ("nxt", 26), ("prv", 8), ("nxt", 10), ("prv", 27)],
    [("nxt", 26), ("prv", 26), ("nxt", 27), ("prv", 27), ("nxt", 28), ("prv", 28),
     ("nxt", 20), ("prv", 31)],
    [("nxt", 29), ("prv", 29)],
    [("nxt", 31), ("prv", 31)],
]


class TestUnlinkBody:
    """One unlink body per search structure, reused by every visit and by
    ``eliminate``; its checks and its logged cells are those of a body per
    visit."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_one_body_for_eliminate_and_a_validating_visit(self, backend):
        with RecordingEngine(3, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(sample9(), eng)
            built = len(eng.bodies)
            first, last = eg.in_arc[eg.in_off[3]], eg.in_arc[eg.in_off[7]]
            around = [[("nxt", eg.prv[first]), ("prv", eg.nxt[first])]]
            eg.eliminate(first)
            eg.eliminate_incoming(5)
            eg.eliminate_incoming(0)
            around.append([("nxt", eg.prv[last]), ("prv", eg.nxt[last])])
            eg.eliminate(last)
        # the constructor made the body, and no method is left to make it later
        assert [body is eg._unlink for body in eng.bodies[built:]] == [True] * 4
        assert not hasattr(ElimGraph, "_unlink_body")
        # eliminate is a validating block like a visit's: it logs its arc's
        # predecessor's nxt and successor's prv
        blocks = eng.cells[built:]
        assert [blocks[0], blocks[3]] == around
        assert blocks[1] and blocks[2]

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate_writes", [False, True])
    @pytest.mark.parametrize("kind", ["dfs", "bfs", "sweep"])
    def test_every_visit_passes_the_same_body(self, backend, validate_writes, kind):
        g = gnm(30, 120, 4)
        with RecordingEngine(3, backend=backend, validate_writes=validate_writes) as eng:
            eg = ElimGraph.build(g, eng)
            built = len(eng.bodies)
            if kind == "sweep":
                res = sweep(eg, DFS, 0, eng)
            else:
                res = (dfs if kind == "dfs" else bfs)(eg, 0, 0, eng)
        visits = eng.bodies[built:]
        assert len(visits) == res.visited_count > 1
        assert all(body is visits[0] for body in visits)

    # vertex 3's in-arcs sit inside their source lists and vertex 5's first
    # two head theirs, so the liveness test reads both arc and head-node nxt
    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate_writes", [False, True])
    @pytest.mark.parametrize("v", [3, 5])
    def test_second_elimination_of_a_vertex_rejected(self, backend, validate_writes, v):
        with ParEngine(3, backend=backend, validate_writes=validate_writes) as eng:
            eg = ElimGraph.build(sample9(), eng)
            eg.eliminate_incoming(v)
            with pytest.raises(AlreadyEliminated) as exc:
                eg.eliminate_incoming(v)
        # the driver's chunk comes first
        assert (exc.value.source, exc.value.slot) == in_table(eg, v)[0]

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate_writes", [False, True])
    @pytest.mark.parametrize("v,i", [(3, i) for i in range(5)] + [(5, i) for i in range(3)])
    def test_block_over_an_eliminated_arc_rejected(self, backend, validate_writes, v, i):
        """At p=3, vertex 3's five in-arcs fall into the driver's chunk
        (0-1) and both workers' chunks (2-3 and 4); vertex 5's three in-arcs
        get one chunk each."""
        with ParEngine(3, backend=backend, validate_writes=validate_writes) as eng:
            eg = ElimGraph.build(sample9(), eng)
            a = eg.in_arc[eg.in_off[v] + i]
            eg.eliminate(a)
            with pytest.raises(AlreadyEliminated) as exc:
                eg.eliminate_incoming(eg.tgt[a])
        assert (exc.value.source, exc.value.slot) == in_table(eg, v)[i]

    @pytest.mark.parametrize("kind,want", [(DFS, SAMPLE_DFS_CELLS), (BFS, SAMPLE_BFS_CELLS)])
    @pytest.mark.parametrize("p,backend", [(1, SIMULATED), (3, SIMULATED), (3, THREADED)])
    def test_logged_cells_per_visit_golden(self, kind, want, p, backend):
        with RecordingEngine(p, backend=backend, validate_writes=True) as eng:
            eg = ElimGraph.build(sample9(), eng)
            built = len(eng.cells)
            (dfs if kind == DFS else bfs)(eg, 0, 0, eng)
        got = eng.cells[built:]
        if backend == THREADED:  # chunks run concurrently: compare each block's cells as a set
            got, want = [sorted(c) for c in got], [sorted(c) for c in want]
        assert got == want


class TestFirstLiveTarget:
    def test_fresh_vertex5(self):
        eg = ElimGraph.build(sample9())
        assert eg.live_targets(5) == [7, 3, 2, 1]

    def test_after_eliminating_into_7(self):
        eg = ElimGraph.build(sample9())
        eg.eliminate_incoming(7)
        assert eg.live_targets(5) == [3, 2, 1]

    def test_exhausted_vertex(self):
        eg = ElimGraph.build(Graph([[]]))
        assert eg.live_targets(0) == []


class TestInspection:
    def test_vertex_view(self):
        eg = ElimGraph.build(sample9())
        arcs = arcs_of(eg, 3)
        assert len(arcs) == 3
        assert indegree(eg, 3) == 5
        assert [eg.tgt[a] for a in arcs] == [6, 5, 0]
        assert eg.nxt[eg.m + 3] == arcs.start
        assert eg.traversal[3] == ABSENT

    def test_dump_golden(self):
        eg = ElimGraph.build(Graph([[1, 2], [2], []]))
        eg.eliminate(0)
        assert [eg.live_targets(u) for u in range(3)] == [[2], [2], []]
        # slot of each live list's first arc; vertex 2's list is empty
        assert [eg.live_arcs(u)[0] - eg.off[u] for u in range(2)] == [1, 0]
        assert [indegree(eg, v) for v in range(3)] == [0, 1, 2]

    @pytest.mark.parametrize("make, text", [
        (lambda: ElimGraph(sample9()), "ElimGraph(n=9, m=24)"),
        (lambda: ParEngine(3, backend=THREADED), "ParEngine(processors=3, backend='threaded')"),
    ])
    def test_repr(self, make, text):
        obj = make()
        assert repr(obj) == text
        if isinstance(obj, ParEngine):
            obj.close()


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

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_liveness_test_holds_exactly_for_live_arcs(self, seed):
        """``nxt[prv[a]] == a``, the unlink body's test, is true for every arc
        not yet eliminated and false for every eliminated one, after each
        step of a random elimination order."""
        rng = random.Random(seed)
        n = rng.randrange(1, 16)
        g = gnm(n, rng.randrange(0, min(4 * n, n * (n - 1)) + 1), seed)
        eg = ElimGraph.build(g)
        order = list(range(g.num_arcs))
        rng.shuffle(order)
        live = set(order)
        for a in order:
            eg.eliminate(a)
            live.discard(a)
            assert {b for b in range(g.num_arcs) if eg.nxt[eg.prv[b]] == b} == live
