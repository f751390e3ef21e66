"""The monitor must actually catch broken invariants, not just pass clean
runs; every check gets a negative control here."""
import gc
import threading
import tracemalloc

import pytest

from arcelim import (
    COUNTERS,
    CostReport,
    SIMULATED,
    THREADED,
    ElimGraph,
    Graph,
    InvariantMonitor,
    InvariantViolation,
    PARANOID,
    ParEngine,
    bfs,
    dfs,
    gnm,
    path,
    sample9,
)
from arcelim.elim import arc_slot
from arcelim.result import ABSENT


def attached(level=COUNTERS, g=None):
    monitor = InvariantMonitor(level)
    eg = ElimGraph.build(g or sample9(), monitor=monitor)
    return monitor, eg


class TestCleanRuns:
    @pytest.mark.parametrize("level", [COUNTERS, PARANOID])
    def test_dfs_clean(self, level):
        monitor, eg = attached(level)
        dfs(eg, 0)
        assert monitor.stats["visit_checks"] == 9
        assert monitor.stats["eliminations"] == 24

    @pytest.mark.parametrize("level", [COUNTERS, PARANOID])
    def test_bfs_clean(self, level):
        monitor, eg = attached(level)
        bfs(eg, 0)
        assert monitor.stats["visit_checks"] == 9
        if level == PARANOID:
            assert monitor.stats["level_checks"] > 0

    def test_counters_level_scans_once_at_finish(self):
        monitor, eg = attached(COUNTERS)
        dfs(eg, 0)
        assert monitor.stats["structural_scans"] == 1

    def test_one_monitor_watches_one_structure(self):
        monitor, eg = attached()
        with pytest.raises(ValueError, match="pass a fresh monitor to each build"):
            ElimGraph.build(path(30), monitor=monitor)
        assert monitor.eg is eg
        dfs(eg, 0)
        assert monitor.stats["visit_checks"] == 9

    def test_taken_monitor_fails_the_build_before_any_block(self):
        monitor, _ = attached()
        engine = ParEngine(1)
        with pytest.raises(ValueError, match="pass a fresh monitor to each build"):
            ElimGraph(path(30), engine, monitor)
        assert engine.report() == CostReport()
        assert engine.histogram == {}

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            InvariantMonitor("relaxed")


class TestMemory:
    def test_attach_keeps_four_byte_counts(self):
        """The monitor keeps one 4-byte live-in count per vertex and one
        elimination flag byte per arc, not a list slot per vertex."""
        g = gnm(2000, 20000, seed=1)
        InvariantMonitor().attach(ElimGraph(g))  # warm the code paths attach touches
        eg = ElimGraph(g)
        monitor = InvariantMonitor()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            monitor.attach(eg)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 4 * g.num_vertices + g.num_arcs + 2048
        assert list(monitor._live_in) == [eg.in_off[v + 1] - eg.in_off[v] for v in range(eg.n)]
        monitor.verify_structure()


class TestViolationsCaught:
    def test_visit_with_live_incoming_arc(self):
        monitor, eg = attached()
        # forge a visit of 3 without eliminating its incoming arcs
        eg.traversal[3] = 0
        with pytest.raises(InvariantViolation, match="live incoming"):
            monitor.after_visit(3)

    def test_double_elimination(self):
        monitor, eg = attached()
        eg.eliminate(eg.off[0] + 1)
        with pytest.raises(InvariantViolation, match=r"source 0, slot 1\) eliminated twice"):
            monitor.on_eliminate((eg.off[0] + 1,))

    def test_double_elimination_inside_a_block(self):
        # vertex 0's four incoming arcs, as its visit reports them: the
        # first and the last unlinked behind the monitor's back, the second
        # already eliminated and reported
        monitor, eg = attached()
        block = eg.in_arc[eg.in_off[0]:eg.in_off[1]]
        eg.eliminate(block[1])
        eg.monitor = None
        eg.eliminate(block[0])
        eg.eliminate(block[3])
        eg.monitor = monitor
        with pytest.raises(InvariantViolation,
                           match=r"source %d, slot %d\) eliminated twice" % arc_slot(eg.off, block[1])):
            monitor.on_eliminate(block)
        assert monitor.stats["eliminations"] == 1

    @pytest.mark.parametrize("slot", [0, 1, 3])
    def test_report_of_a_still_linked_arc(self, slot):
        # slot 0 is pointed at by the head node's nxt, the others by their
        # predecessor's nxt
        monitor, eg = attached()
        with pytest.raises(
            InvariantViolation,
            match=rf"source 0, slot {slot}\) reported eliminated but still linked",
        ):
            monitor.on_eliminate((eg.off[0] + slot,))
        assert monitor.stats["eliminations"] == 0

    def test_structural_scan_sees_relinked_slot(self):
        monitor, eg = attached()
        a0, a1, a2, _ = range(eg.off[0], eg.off[1])
        eg.eliminate(a1)
        # resurrect the dead arc behind the monitor's back
        eg.nxt[a0] = a1
        eg.prv[a2] = a1
        with pytest.raises(InvariantViolation, match="slot 1 reappeared"):
            monitor.verify_structure()

    def test_structural_scan_sees_vanished_slot(self):
        monitor, eg = attached()
        # unlink by hand without telling the monitor
        eg.nxt[eg.m] = eg.off[0] + 1
        eg.prv[eg.off[0] + 1] = eg.m
        with pytest.raises(InvariantViolation, match="slot 0 vanished"):
            monitor.verify_structure()

    def test_structural_scan_names_a_vanished_slot_past_vertex_0(self):
        monitor, eg = attached()
        a16, a17, a18, _ = range(eg.off[5], eg.off[6])
        # unlink vertex 5's slot 1 by hand without telling the monitor
        eg.nxt[a16] = a18
        eg.prv[a18] = a16
        with pytest.raises(InvariantViolation) as exc:
            monitor.verify_structure()
        assert str(exc.value) == "vertex 5: slot 1 vanished without being eliminated"

    def test_structural_scan_names_a_reappeared_slot_past_vertex_0(self):
        # after a whole search every arc is eliminated and targets a visited
        # vertex; the relinked slot is named as such, not as a live arc
        # into a visited vertex
        monitor, eg = attached()
        dfs(eg, 0)
        a18 = eg.off[5] + 2
        h = eg.m + 5
        eg.nxt[h] = eg.prv[h] = a18
        eg.nxt[a18] = eg.prv[a18] = h
        with pytest.raises(InvariantViolation) as exc:
            monitor.verify_structure()
        assert str(exc.value) == "vertex 5: eliminated slot 2 reappeared in the live chain"

    def test_structural_scan_sees_live_arc_into_visited(self):
        monitor, eg = attached()
        eg.traversal[3] = 0
        with pytest.raises(InvariantViolation, match="visited"):
            monitor.verify_structure()

    def test_broken_chain_order(self):
        monitor, eg = attached(g=path(4))
        eg.nxt[eg.off[0]] = eg.off[0]  # self-cycle at the head arc
        with pytest.raises(InvariantViolation, match="not increasing at 0"):
            monitor.verify_structure()

    @pytest.mark.parametrize("eliminated", [0, 4])
    def test_head_node_prv_mismatch(self, eliminated):
        # the head node's prv must name the list's last live arc, or the head
        # itself once vertex 0's four-arc list is empty
        monitor, eg = attached()
        for a in range(eg.off[0], eg.off[0] + eliminated):
            eg.eliminate(a)
        eg.prv[eg.m] = eg.off[0] + 1
        expected = 3 if eliminated == 0 else -1
        with pytest.raises(InvariantViolation,
                           match=rf"vertex 0: prv\[-1\]=1, expected {expected}$"):
            monitor.verify_structure()

    def test_middle_arc_prv_mismatch(self):
        # an arc inside the chain must point back at the arc before it
        monitor, eg = attached()
        eg.prv[eg.off[0] + 2] = eg.off[0]
        with pytest.raises(InvariantViolation) as exc:
            monitor.verify_structure()
        assert str(exc.value) == "vertex 0: prv[2]=0, expected 1"

    @pytest.mark.parametrize("target, went", [
        (4, "arc (source 1, slot 0)"),  # vertex 1's first arc
        (25, "the head node of vertex 1"),  # m + 1, with m = 24
    ])
    def test_chain_end_outside_its_list(self, target, went):
        monitor, eg = attached()
        eg.nxt[eg.off[0] + 3] = target  # vertex 0's last arc leaves its list
        with pytest.raises(InvariantViolation) as exc:
            monitor.verify_structure()
        assert str(exc.value) == f"vertex 0: chain ends at {went}, not at its own head node -1"

    def test_finish_sees_surviving_arc_into_visited(self):
        monitor, eg = attached()
        dfs(eg, 0)
        # re-link an arc into the visited vertex 3 after the fact
        eg.nxt[eg.m] = eg.off[0] + 2
        eg.prv[eg.off[0] + 2] = eg.m
        monitor._live_in[3] += 1
        with pytest.raises(InvariantViolation):
            monitor.verify_structure()

    def test_live_in_count_off_the_chains(self):
        # every arc is where its flag says, but one count of the in-table's
        # sizes, kept since attach, disagrees with the chains
        monitor = InvariantMonitor(COUNTERS)
        dfs(ElimGraph(Graph([[1], []]), monitor=monitor), 1)
        monitor._live_in[0] += 1
        with pytest.raises(InvariantViolation) as exc:
            monitor.verify_structure()
        assert str(exc.value) == "live-in counts disagree with the link chains"

    def test_level_distance_mismatch(self):
        monitor, eg = attached(PARANOID)
        eg.distance[1] = eg.distance[2] = 1
        monitor.after_level(1, [1, 2])  # both discovered at level 1
        eg.distance[1] = 0
        with pytest.raises(InvariantViolation, match=r"distances \[0, 1\], expected \{1\}"):
            monitor.after_level(1, [1, 2])

    def test_next_queue_with_internal_live_arc(self):
        monitor, eg = attached(PARANOID)
        # 0 -> 1 is live; a queue holding both violates the level property
        with pytest.raises(InvariantViolation, match="connects"):
            monitor.after_level(1, [0, 1])


class SkippingEngine(ParEngine):
    """Charges every block as ParEngine does, but once ``skipping`` is set
    runs none of its steps."""

    skipping = False

    def par_for(self, count, body):
        super().par_for(count, (lambda r: None) if self.skipping else body)


class TestDriverSideReports:
    """The driver reports each eliminated arc after its block has joined."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("search", [dfs, bfs])
    def test_skipped_block_fails_at_the_first_visit(self, search, backend):
        monitor = InvariantMonitor()
        with SkippingEngine(2, backend=backend) as engine:
            eg = ElimGraph.build(sample9(), engine, monitor=monitor)  # vertex 0 has four incoming arcs
            engine.skipping = True
            with pytest.raises(InvariantViolation, match="still linked"):
                search(eg, 0, engine=engine)
        assert list(eg.traversal) == [ABSENT] * 9
        assert monitor.stats["visit_checks"] == 0
        assert monitor.stats["structural_scans"] == 0

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("search", [dfs, bfs])
    def test_threaded_reports_come_from_the_driver(self, search, p):
        monitor = InvariantMonitor()
        callers = []
        reported = []
        record = monitor.on_eliminate

        def on_eliminate(arcs):
            callers.append(threading.get_ident())
            reported.append(len(arcs))
            record(arcs)

        monitor.on_eliminate = on_eliminate
        with ParEngine(p, backend=THREADED) as engine:
            eg = ElimGraph.build(sample9(), engine, monitor=monitor)
            search(eg, 0, engine=engine)
        # one call per visit's block, carrying all of the block's arcs
        assert len(callers) == 9
        assert sum(reported) == monitor.stats["eliminations"] == 24
        assert set(callers) == {threading.get_ident()}
