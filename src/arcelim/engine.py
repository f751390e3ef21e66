"""Execution contract for data-parallel blocks, with cost accounting.

All parallelism in this package goes through ``ParEngine.par_for``: a block
of k independent steps over the indices 0..k-1, followed by a full barrier.
The block's steps may read anything but must write pairwise disjoint
locations (concurrent-read, exclusive-write).  The driver code between
blocks is strictly sequential.

The engine charges a block by its size; the backend runs it as whole
chunks.  The body is called once per non-empty chunk with the chunk's
``range`` of indices and runs every step of that range in order, as one
processor runs its share of a block.  An empty block, or an empty chunk,
makes no call.  Two backends share identical semantics and identical cost
accounting:

* ``simulated`` makes one call, ``body(range(k))``, on the calling thread.
  Deterministic and machine-independent; the default for benchmarks.
* ``threaded`` runs a block as a fork-join over p threads: the driver
  thread is processor 0 and a fixed pool of p - 1 worker threads holds the
  others.  Chunk w is ``range(w * c, min(k, (w + 1) * c))`` with
  c = ceil(k/p).  The driver hands chunks 1..p-1 over, runs chunk 0 itself
  and joins every worker before the block returns, so each block is one
  real synchronization episode.  With p = 1 no thread is started.

Cost model, charged identically by both backends:

* a block over k indices costs ceil(k/p) time steps, one synchronization
  step, and k units of work; an empty block still synchronizes;
* ``seq_tick`` charges driver actions (one unit each); traversal drivers
  count one per visit, per while-condition evaluation, per queue enqueue or
  dequeue, and per level advance, and charge the total once per run;
* with p = 1, time_steps == work + seq_steps.

A block is recorded by its size only: the engine keeps a histogram
``{k: number c of blocks of size k}``, one dict update per block, and
``report(p)`` derives the block counters from it for any p: time_steps =
sum of c * ceil(k/p) + seq_steps, sync_steps = sum of c, work = sum of
c * k.  Block sizes do not depend on p, so one run gives the counted cost
at every processor count.

An optional validation mode records every location mutated within a block
and fails the block on any duplicate, enforcing the exclusive-write
contract.  Bodies report locations to ``log_write``, which is None unless
the engine validates and is otherwise the log's own ``list.append``, atomic
on either backend; it is the engine's one validation switch, and after the
join only the driver reads the log.  A cell is an int: the search
structure logs ``4 * index + kind``.  A log of fewer than 2 cells cannot
hold a duplicate and is not checked.  A log of fewer than 64 cells is
checked with a set.  A longer one passes in one scan with no copy if it
already rises strictly, as a block over ascending cells logs them;
otherwise it is sorted and scanned, which holds one pointer per cell where
a set holds several.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Callable

from .errors import DisjointWriteViolation

SIMULATED = "simulated"
THREADED = "threaded"
BACKENDS = (SIMULATED, THREADED)

# the log length from which a block's writes are checked by sorting, not
# hashing: a set is faster on the short logs of most blocks
_SORTED_CHECK_FROM = 64


@dataclass(frozen=True)
class CostReport:
    """Snapshot of an engine's accumulated cost counters."""

    time_steps: int = 0
    sync_steps: int = 0
    work: int = 0
    seq_steps: int = 0

    def __sub__(self, other: CostReport) -> CostReport:
        return CostReport(
            self.time_steps - other.time_steps,
            self.sync_steps - other.sync_steps,
            self.work - other.work,
            self.seq_steps - other.seq_steps,
        )


def check_processors(p: int) -> int:
    """p, if it is a processor count; ValueError if it is below 1."""
    if p < 1:
        raise ValueError(f"processors must be >= 1, got {p}")
    return p


class ParEngine:
    """Parallel-for executor with PRAM-style cost accounting.

    ``processors`` is the modelled processor count p >= 1.  The threaded
    backend allocates its worker pool lazily and should be closed after use
    (it is also a context manager); a closed threaded engine refuses later
    blocks, and closing a simulated engine is a no-op.
    """

    def __init__(self, processors: int = 1, backend: str = SIMULATED,
                 validate_writes: bool = False):
        self.processors = check_processors(processors)
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.histogram: dict[int, int] = {}  # block size -> blocks of that size
        self.seq_steps = 0
        self._pool: _WorkerPool | None = None
        self._closed = False
        self._write_log: list[int] = []
        self.log_write = self._write_log.append if validate_writes else None

    # -- execution ----------------------------------------------------------

    def par_for(self, count: int, body: Callable[[range], None]) -> None:
        """Run the block of steps 0..count-1 as chunks, then synchronize.

        ``body(r)`` runs steps ``i in r`` in order and is called once per
        non-empty chunk: ``range(count)`` on the simulated backend, one
        contiguous ceil(count/p) share per processor on the threaded one.
        Steps must write pairwise-disjoint locations (caller obligation,
        checked only in validation mode).  Accounting: ceil(count/p) time
        steps, one synchronization step, count units of work, all derived
        by ``report`` from the block-size histogram.  On a closed threaded
        engine it raises ValueError and charges nothing.
        """
        if self.backend == SIMULATED:
            pool = None
        else:
            pool = self._pool
            if pool is None or pool.abandoned:
                if self._closed:
                    raise ValueError("parallel block on a closed threaded engine")
                pool = self._pool = _WorkerPool(self.processors)
        histogram = self.histogram
        histogram[count] = histogram.get(count, 0) + 1
        validate = self.log_write is not None
        if validate:
            self._write_log.clear()
        if pool is None:
            if count:
                body(range(count))
        else:
            pool.run_block(body, count)
        if validate:
            log = self._write_log
            k = len(log)
            # fewer than 2 cells cannot repeat one; a short log is checked
            # here, and only a long or failing one goes to the full check
            if k > 1 and (k >= _SORTED_CHECK_FROM or len(set(log)) != k):
                self._check_block_writes()

    def seq_tick(self, units: int = 1) -> None:
        """Charge sequential driver work: units time steps outside any block."""
        self.seq_steps += units

    def report(self, p: int | None = None) -> CostReport:
        """The counted cost so far at p processors (default: the engine's
        own), derived from the block-size histogram and the driver steps."""
        p = self.processors if p is None else check_processors(p)
        time_steps = sync_steps = work = 0
        for k, c in self.histogram.items():
            time_steps += c * -(-k // p)
            sync_steps += c
            work += c * k
        return CostReport(time_steps + self.seq_steps, sync_steps, work, self.seq_steps)

    # -- write validation ----------------------------------------------------

    def _check_block_writes(self) -> None:
        """Raise DisjointWriteViolation on the first cell, in log order,
        that the block logged twice."""
        log = self._write_log
        # a long log that rises as logged needs no sorted copy; one that
        # does not rise once sorted holds a duplicate, which the scan names
        if len(log) >= _SORTED_CHECK_FROM and (_rises(log) or _rises(sorted(log))):
            return
        seen = set()
        for cell in log:
            if cell in seen:
                raise DisjointWriteViolation(cell)
            seen.add(cell)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool, if one runs.  From then on a threaded
        engine refuses every block with ValueError, as a closed file refuses
        a read, instead of starting a pool that nothing would close; its
        report stays readable.  Closing twice, or closing a simulated
        engine, is a no-op."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> ParEngine:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParEngine(processors={self.processors}, backend={self.backend!r})"


def _rises(cells: list[int]) -> bool:
    """Whether the cells rise strictly, and so are pairwise distinct."""
    return all(map(lt, cells, islice(cells, 1, None)))


class _WorkerPool:
    """Fork-join pool: the driver thread is processor 0, and p - 1 worker
    threads run chunks 1..p-1 of each block.

    Worker w owns two plain locks used as binary semaphores, ``go`` and
    ``done``, both held while it is idle.  A block publishes its task,
    releases every ``go``, runs chunk 0 on the driver and then acquires
    every ``done``: one join per block, so the engine's sync_steps counter
    equals the number of real synchronization episodes.  Errors raised by
    bodies are kept per chunk and the first in chunk order is re-raised
    after the join.  If the hand-over or the join itself is interrupted,
    the locks are out of step: the pool is marked ``abandoned`` and its
    workers exit after their current chunk.
    """

    def __init__(self, processors: int):
        self.processors = processors
        self.abandoned = False
        self._task: tuple[Callable[[range], None], int, int] | None = None
        self._errors: list[BaseException | None] = [None] * processors
        self._go = [threading.Lock() for _ in range(processors - 1)]
        self._done = [threading.Lock() for _ in range(processors - 1)]
        for lock in self._go + self._done:
            lock.acquire()
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(w, go, done), daemon=True)
            for w, go, done in zip(range(1, processors), self._go, self._done)
        ]
        for t in self._threads:
            t.start()

    def _worker_loop(self, w: int, go: threading.Lock, done: threading.Lock) -> None:
        while True:
            go.acquire()
            task = self._task
            if task is None:
                return
            body, count, chunk = task
            lo = w * chunk
            if lo < count:
                try:
                    body(range(lo, min(count, lo + chunk)))
                except BaseException as exc:  # re-raised by the driver after the join
                    self._errors[w] = exc
            done.release()

    def run_block(self, body: Callable[[range], None], count: int) -> None:
        """Run one block: release every worker, run chunk 0, join.

        A SIGINT that reaches the driver after it has released the GIL and
        before it blocks in ``done.acquire()`` is acted on only when that
        join returns, so the interrupt waits for the slowest worker chunk.
        """
        chunk = -(-count // self.processors)
        errors = self._errors
        self._task = (body, count, chunk)
        try:
            for go in self._go:
                go.release()
            if count:
                try:
                    body(range(chunk))
                except BaseException as exc:
                    errors[0] = exc
            for done in self._done:
                done.acquire()
        except BaseException:
            self._stop()
            self.abandoned = True
            raise
        self._task = None
        if errors.count(None) != len(errors):
            first = next(exc for exc in errors if exc is not None)
            errors[:] = [None] * len(errors)
            raise first

    def _stop(self) -> None:
        """Let every worker exit once it has finished its current chunk."""
        self._task = None
        for go in self._go:
            try:
                go.release()
            except RuntimeError:  # still released: the worker has not woken yet
                pass

    def close(self) -> None:
        if not self.abandoned:
            self._stop()
            for t in self._threads:
                t.join()
