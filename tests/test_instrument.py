"""The monitor must actually catch broken invariants, not just pass clean
runs; every check gets a negative control here."""
import pytest

from arcelim import (
    COUNTERS,
    ElimGraph,
    InvariantMonitor,
    InvariantViolation,
    PARANOID,
    bfs,
    dfs,
    path,
    sample9,
)


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

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            InvariantMonitor("relaxed")


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
            monitor.on_eliminate(eg.off[0] + 1)

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
        eg.first[0] = eg.off[0] + 1
        eg.prv[eg.off[0] + 1] = -1
        with pytest.raises(InvariantViolation, match="slot 0 vanished"):
            monitor.verify_structure()

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

    def test_finish_sees_surviving_arc_into_visited(self):
        monitor, eg = attached()
        dfs(eg, 0)
        # re-link an arc into the visited vertex 3 after the fact
        eg.first[0] = eg.off[0] + 2
        eg.prv[eg.off[0] + 2] = -1
        monitor._live_in[3] += 1
        with pytest.raises(InvariantViolation):
            monitor.verify_structure()

    def test_level_distance_mismatch(self):
        monitor, eg = attached(PARANOID)
        eg.distance[1] = 0
        eg.distance[2] = 1
        with pytest.raises(InvariantViolation, match="level"):
            monitor.before_level(2, [1, 2])

    def test_next_queue_with_internal_live_arc(self):
        monitor, eg = attached(PARANOID)
        # 0 -> 1 is live; a queue holding both violates the level property
        with pytest.raises(InvariantViolation, match="connects"):
            monitor.after_level(1, [0, 1])
