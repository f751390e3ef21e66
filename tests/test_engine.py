import inspect
import random
import signal
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from arcelim import (
    SIMULATED,
    THREADED,
    CostReport,
    DisjointWriteViolation,
    ElimGraph,
    ParEngine,
)


def each(f):
    """Chunk body that runs the per-index step f(i) for every i of its chunk."""
    return lambda r: [f(i) for i in r]


class TestAccounting:
    def test_fresh_engine_all_zero(self):
        rep = ParEngine().report()
        assert rep == CostReport(0, 0, 0, 0)

    def test_ceil_division(self):
        with ParEngine(4) as eng:
            eng.par_for(10, lambda i: None)
        rep = eng.report()
        assert rep.time_steps == 3
        assert rep.sync_steps == 1
        assert rep.work == 10

    def test_empty_block_still_synchronizes(self):
        with ParEngine(8) as eng:
            eng.par_for(0, lambda i: None)
        rep = eng.report()
        assert rep == CostReport(time_steps=0, sync_steps=1, work=0, seq_steps=0)

    def test_sequential_degeneration(self):
        with ParEngine(1) as eng:
            eng.par_for(7, lambda i: None)
        assert eng.report().time_steps == 7

    def test_seq_tick(self):
        eng = ParEngine()
        eng.seq_tick()
        eng.seq_tick()
        eng.seq_tick()
        eng.seq_tick(0)
        rep = eng.report()
        assert rep.seq_steps == 3
        assert rep.time_steps == 3

    @given(
        st.lists(st.integers(0, 50), max_size=20),
        st.integers(1, 16),
    )
    def test_p1_time_equals_work_plus_seq(self, sizes, ticks):
        eng = ParEngine(1)
        for k in sizes:
            eng.par_for(k, lambda i: None)
        eng.seq_tick(ticks)
        rep = eng.report()
        assert rep.time_steps == rep.work + rep.seq_steps
        assert rep.sync_steps == len(sizes)

    @given(st.lists(st.integers(0, 50), max_size=20))
    def test_time_monotone_in_p(self, sizes):
        times = []
        for p in (1, 2, 4, 8):
            eng = ParEngine(p)
            for k in sizes:
                eng.par_for(k, lambda i: None)
            times.append(eng.report().time_steps)
        assert times == sorted(times, reverse=True)

    @given(st.lists(st.integers(0, 50), max_size=20), st.integers(0, 9))
    def test_report_at_any_p_equals_a_run_at_that_p(self, sizes, ticks):
        """One run's block-size histogram gives the counted cost at every p."""
        one = ParEngine(1)
        for k in sizes:
            one.par_for(k, lambda r: None)
        one.seq_tick(ticks)
        assert one.histogram == {k: sizes.count(k) for k in set(sizes)}
        for p in (1, 2, 3, 8):
            real = ParEngine(p)
            for k in sizes:
                real.par_for(k, lambda r: None)
            real.seq_tick(ticks)
            assert one.report(p) == real.report() == real.report(p)

    def test_report_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="processors must be >= 1"):
            ParEngine().report(0)

    def test_processors_validated(self):
        with pytest.raises(ValueError):
            ParEngine(0)
        with pytest.raises(ValueError):
            ParEngine(backend="fibers")


class TestExecution:
    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_body_runs_once_per_index(self, backend, p):
        hits = [0] * 23
        with ParEngine(p, backend=backend) as eng:
            eng.par_for(23, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
        assert hits == [1] * 23

    def test_threaded_uses_worker_threads(self):
        seen = set()
        with ParEngine(4, backend=THREADED) as eng:
            eng.par_for(64, each(lambda i: seen.add(threading.get_ident())))
        assert len(seen) > 1

    def test_threaded_body_exception_propagates(self):
        def boom(i):
            if i == 5:
                raise RuntimeError("body failed")

        with ParEngine(3, backend=THREADED) as eng:
            with pytest.raises(RuntimeError, match="body failed"):
                eng.par_for(8, each(boom))
            # engine still usable after a failed block
            eng.par_for(4, lambda i: None)

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_backend_counter_equivalence(self, backend):
        with ParEngine(3, backend=backend) as eng:
            eng.par_for(10, lambda i: None)
            eng.seq_tick(2)
            eng.par_for(0, lambda i: None)
        assert eng.report() == CostReport(
            time_steps=6, sync_steps=2, work=10, seq_steps=2
        )


class TestChunkContract:
    """par_for calls its body once per non-empty chunk with the chunk's range."""

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_simulated_one_call_per_nonempty_block(self, p):
        eng = ParEngine(p)
        for k in range(12):
            calls = []
            eng.par_for(k, calls.append)
            assert calls == ([range(k)] if k else [])
        assert eng.report().sync_steps == 12

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_threaded_ceil_chunks_cover_the_block(self, p):
        driver = threading.get_ident()
        lock = threading.Lock()

        def body(r):
            with lock:
                calls.append((r, threading.get_ident()))

        with ParEngine(p, backend=THREADED) as eng:
            for k in range(2 * p + 2):
                calls = []
                eng.par_for(k, body)
                c = -(-k // p)
                want = [range(w * c, min(k, (w + 1) * c)) for w in range(p) if w * c < k]
                got = sorted((r for r, _ in calls), key=lambda r: r.start)
                assert got == want
                assert [i for r in got for i in r] == list(range(k))
                for r, ident in calls:
                    assert (ident == driver) == (r.start == 0)
            assert eng.report().sync_steps == 2 * p + 2


class TestWriteValidation:
    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_log_write_is_none_unless_validating(self, backend):
        """Bodies test ``log is not None`` and never ask the engine whether
        it validates."""
        with ParEngine(2, backend=backend) as eng:
            assert eng.log_write is None
        with ParEngine(2, backend=backend, validate_writes=True) as eng:
            assert callable(eng.log_write)

    def test_disjoint_writes_pass(self):
        cells = [0] * 10
        with ParEngine(2, validate_writes=True) as eng:

            def body(i):
                cells[i] = 1
                eng.log_write(i)

            eng.par_for(10, each(body))
        assert cells == [1] * 10

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_overlapping_writes_detected(self, backend):
        with ParEngine(2, backend=backend, validate_writes=True) as eng:
            with pytest.raises(DisjointWriteViolation):
                eng.par_for(4, each(lambda i: eng.log_write(0)))

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_violation_names_the_duplicated_cell(self, backend):
        with ParEngine(3, backend=backend, validate_writes=True) as eng:
            with pytest.raises(DisjointWriteViolation) as info:
                eng.par_for(9, each(lambda i: eng.log_write(i % 8)))
        assert info.value.cell == 0

    def test_long_int_log_names_the_first_repeat(self):
        """A log of 64 or more ints is checked by sorting; a violation still
        names the first cell, in log order, that repeats, not the least."""
        with ParEngine(3, validate_writes=True) as eng:
            eng.par_for(95, each(lambda i: eng.log_write(i)))
            with pytest.raises(DisjointWriteViolation) as info:
                eng.par_for(100, each(lambda i: eng.log_write((99 - i) % 95)))
        assert info.value.cell == 4

    def test_rising_long_log_passes_with_no_copy(self):
        """A long log that already rises strictly passes in one scan: the
        check allocates nothing near the 8 B a cell of a sorted copy."""
        n = 10_000
        cells = list(range(n))
        marks = []

        def body(r):
            for c in cells:
                eng.log_write(c)
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            with ParEngine(validate_writes=True) as eng:
                eng.par_for(1, body)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - marks[0] < n  # a sorted copy would be 8n

    def test_long_log_rising_but_for_one_repeat_names_it(self):
        """A log that never falls but repeats one cell next to itself does
        not rise strictly, so it is not accepted, and the repeat is named."""
        with ParEngine(validate_writes=True) as eng:
            with pytest.raises(DisjointWriteViolation) as info:
                eng.par_for(100, each(lambda i: eng.log_write(i if i != 50 else 49)))
        assert info.value.cell == 49

    def test_log_cleared_between_blocks(self):
        with ParEngine(2, validate_writes=True) as eng:
            eng.par_for(1, each(lambda i: eng.log_write(0)))
            eng.par_for(1, each(lambda i: eng.log_write(0)))

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_two_equal_cells_fail_their_block(self, backend):
        """The shortest log that can repeat a cell is checked."""
        with ParEngine(2, backend=backend, validate_writes=True) as eng:
            eng.par_for(2, each(lambda i: eng.log_write(i)))
            with pytest.raises(DisjointWriteViolation) as info:
                eng.par_for(2, each(lambda i: eng.log_write(7)))
        assert info.value.cell == 7

    def test_one_cell_block_keeps_its_log(self):
        """A log of one cell is not checked, but is kept until the next
        block as every log is."""
        with ParEngine(2, validate_writes=True) as eng:
            eng.par_for(1, each(lambda i: eng.log_write(i)))
            assert eng._write_log == [0]

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    def test_block_after_a_failed_body_starts_with_an_empty_log(self, backend):
        with ParEngine(2, backend=backend, validate_writes=True) as eng:

            def fail_after_logging(i):
                eng.log_write(i)
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError, match="boom"):
                eng.par_for(4, each(fail_after_logging))
            assert eng._write_log
            # the failed block's cells 0 and 2 would repeat these
            eng.par_for(3, each(lambda i: eng.log_write(i)))
            assert sorted(eng._write_log) == [0, 1, 2]


def _raiser(index, exc):
    def body(i):
        if i == index:
            raise exc

    return body


class TestPoolLifecycle:
    """The threaded pool survives failing blocks and shuts down cleanly."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("where", ["driver chunk", "worker chunk"])
    def test_failed_block_then_correct_block(self, p, where):
        count = 10
        index = 0 if where == "driver chunk" else count - 1
        with ParEngine(p, backend=THREADED) as eng:
            with pytest.raises(RuntimeError, match="body failed"):
                eng.par_for(count, each(_raiser(index, RuntimeError("body failed"))))
            hits = [0] * count
            eng.par_for(count, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
        assert hits == [1] * count

    def test_first_error_in_chunk_order_after_every_worker(self):
        count, chunk = 9, 3
        hits = [0] * count

        def body(i):
            hits[i] += 1
            if i in (0, count - 1):
                raise RuntimeError(f"index {i}")

        with ParEngine(3, backend=THREADED) as eng:
            with pytest.raises(RuntimeError, match="index 0"):
                eng.par_for(count, each(body))
        # the driver's chunk stopped at index 0; every worker's chunk ran
        assert hits == [1, 0, 0] + [1] * (count - chunk)

    @pytest.mark.parametrize("index", [0, 7])
    def test_keyboard_interrupt_propagates_and_engine_recovers(self, index):
        with ParEngine(2, backend=THREADED) as eng:
            with pytest.raises(KeyboardInterrupt):
                eng.par_for(8, each(_raiser(index, KeyboardInterrupt())))
            hits = [0] * 8
            eng.par_for(8, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
        assert hits == [1] * 8

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupted_join_discards_the_pool(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signals reach only the main thread")
        before = threading.active_count()
        driver = threading.get_ident()
        resume = threading.Event()

        def body(i):
            if i == 1:  # the worker's chunk: interrupt the driver's join
                time.sleep(0.05)  # let the driver block in the join first
                signal.pthread_kill(driver, signal.SIGINT)
                resume.wait(5)

        eng = ParEngine(2, backend=THREADED)
        with pytest.raises(KeyboardInterrupt):
            eng.par_for(2, each(body))
            resume.wait(5)  # reached only if the signal came late
        stale = eng._pool._threads
        resume.set()
        hits = [0] * 6
        eng.par_for(6, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
        assert hits == [1] * 6
        eng.close()
        for t in stale:
            t.join(5)
            assert not t.is_alive()
        assert threading.active_count() == before

    def test_close_twice_and_refuse_blocks_after_close(self):
        """A closed threaded engine refuses a block, charging nothing and
        starting no pool that nothing would close; its report stays."""
        before = threading.active_count()
        eng = ParEngine(3, backend=THREADED)
        eng.par_for(5, lambda i: None)
        assert threading.active_count() == before + 2
        eng.close()
        eng.close()
        assert threading.active_count() == before
        hits = [0] * 5
        with pytest.raises(ValueError, match="closed"):
            eng.par_for(5, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
        assert hits == [0] * 5
        assert threading.active_count() == before
        assert eng._pool is None
        assert eng.report().sync_steps == 1


    def test_p1_threaded_starts_no_thread(self):
        before = threading.active_count()
        seen = set()
        with ParEngine(1, backend=THREADED) as eng:
            eng.par_for(6, each(lambda i: seen.add(threading.get_ident())))
            assert threading.active_count() == before
        assert seen == {threading.get_ident()}

    @pytest.mark.parametrize("p", [2, 3])
    def test_stress_each_index_once_and_counters_match(self, p):
        rng = random.Random(p)
        sizes = [rng.randint(0, 2 * p) for _ in range(2000)]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParEngine(p, backend=THREADED) as eng:
                for k in sizes:
                    hits = [0] * k
                    eng.par_for(k, each(lambda i: hits.__setitem__(i, hits[i] + 1)))
                    assert hits == [1] * k
                assert threading.active_count() <= before + p - 1
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        sim = ParEngine(p)
        for k in sizes:
            sim.par_for(k, lambda i: None)
        assert eng.report() == sim.report()


class TestTracerContract:
    """perfbench's tracer times every block by patching ``par_for`` on the
    ParEngine class and ``eliminate_incoming`` on the ElimGraph class, and
    its gate checks the counted time against the block sizes it sees.  A
    ``par_for`` bound on the instance, or one with another signature, would
    hide the blocks from it."""

    @pytest.mark.parametrize("backend", [SIMULATED, THREADED])
    @pytest.mark.parametrize("validate_writes", [False, True])
    def test_par_for_is_not_an_instance_attribute(self, backend, validate_writes):
        with ParEngine(2, backend=backend, validate_writes=validate_writes) as eng:
            eng.par_for(3, lambda r: None)
            assert "par_for" not in vars(eng)

    def test_hooked_signatures(self):
        def params(f):
            return list(inspect.signature(f).parameters)

        assert params(ParEngine.par_for) == ["self", "count", "body"]
        assert params(ElimGraph.eliminate_incoming) == ["self", "v"]


class TestCostReport:
    def test_subtraction_gives_phase_delta(self):
        a = CostReport(10, 3, 20, 5)
        b = CostReport(4, 1, 8, 2)
        assert a - b == CostReport(6, 2, 12, 3)
