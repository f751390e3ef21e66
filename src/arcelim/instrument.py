"""Instrumented verification of the elimination and traversal invariants.

The monitor watches an ElimGraph during a traversal and fails fast on:

* a visited vertex that still has a live incoming arc (checked after every
  visit),
* any arc eliminated more than once,
* corrupted list links, a live arc into a visited vertex anywhere, or an
  arc into a visited vertex that survived (checked structurally).

Two levels trade cost for directness:

* ``counters``: O(1) bookkeeping per elimination.  Exact per-target live
  counts give the after-every-visit check; a full structural audit runs
  once at finish(), verifying that the link chains agree with the
  bookkeeping.  Cheap enough for large randomized sweeps.
* ``paranoid``: additionally re-walks every live chain after every visit
  and checks the level-queue properties of breadth-first runs (members of
  the current queue share one distance; no live arc connects two members
  of the next-level queue).  Quadratic; meant for small graphs.

Violations raise InvariantViolation immediately.  The ``stats`` dict counts
how many checks actually ran, so callers can assert the monitor was live.
"""
from __future__ import annotations

import threading
from typing import Iterable

from .elim import NIL, ElimGraph
from .errors import InvariantViolation

COUNTERS = "counters"
PARANOID = "paranoid"


class InvariantMonitor:
    """Watches one traversal over one ElimGraph."""

    def __init__(self, level: str = COUNTERS):
        if level not in (COUNTERS, PARANOID):
            raise ValueError(f"unknown instrumentation level {level!r}")
        self.level = level
        self.eg: ElimGraph | None = None
        self.stats = {
            "eliminations": 0,
            "visit_checks": 0,
            "structural_scans": 0,
            "level_checks": 0,
        }
        self._lock = threading.Lock()

    def attach(self, eg: ElimGraph) -> None:
        self.eg = eg
        eg.monitor = self
        self._live_in = list(eg.indeg)
        self._eliminated = bytearray(len(eg.tgt))

    # -- hooks called by ElimGraph / the traversal drivers --------------------

    def on_eliminate(self, arc: int) -> None:
        # threaded backends eliminate from worker threads
        with self._lock:
            if self._eliminated[arc]:
                u = self.eg.src[arc]
                raise InvariantViolation(
                    f"arc (source {u}, slot {arc - self.eg.off[u]}) eliminated twice"
                )
            self._eliminated[arc] = 1
            self._live_in[self.eg.tgt[arc]] -= 1
            self.stats["eliminations"] += 1

    def after_visit(self, v: int) -> None:
        self.stats["visit_checks"] += 1
        if self._live_in[v] != 0:
            raise InvariantViolation(
                f"vertex {v} visited with {self._live_in[v]} live incoming arcs"
            )
        if self.level == PARANOID:
            self.verify_structure()

    def before_level(self, level: int, queue: Iterable[int]) -> None:
        """Entry of one breadth-first level: every queue member sits at
        distance level - 1."""
        if self.level != PARANOID:
            return
        self.stats["level_checks"] += 1
        distances = {self.eg.distance[u] for u in queue}
        if distances and distances != {level - 1}:
            raise InvariantViolation(
                f"level {level} queue holds distances {sorted(distances)}, "
                f"expected {{{level - 1}}}"
            )

    def after_level(self, level: int, next_queue: Iterable[int]) -> None:
        """End of one breadth-first level: no live arc inside the next queue."""
        if self.level != PARANOID:
            return
        self.stats["level_checks"] += 1
        members = set(next_queue)
        for u in members:
            for t in self.eg.live_targets(u):
                if t in members:
                    raise InvariantViolation(
                        f"live arc {u}->{t} connects two level-{level} discoveries"
                    )

    def finish(self) -> None:
        """End-of-traversal structural audit (all levels)."""
        self.verify_structure()
        eg = self.eg
        off, tgt, flags = eg.off, eg.tgt, self._eliminated
        visited = [eg.traversal[v] is not None for v in range(eg.n)]
        for u in range(eg.n):
            for a in range(off[u], off[u + 1]):
                t = tgt[a]
                if visited[t] and not flags[a]:
                    raise InvariantViolation(
                        f"arc {u}->{t} (slot {a - off[u]}) still present although {t} was visited"
                    )

    # -- structural audit ------------------------------------------------------

    def verify_structure(self) -> None:
        """Re-walk every live chain and cross-check links, flags, and counts.

        Checks, per vertex: strictly increasing chain ending at the list's
        end sentinel, prv mirroring nxt with NIL at the head, chain
        membership equal to the not-yet-eliminated flags, live-in counts
        matching the chains, and no live arc targeting a visited vertex.
        Messages name arcs by their slot in the source's list.
        """
        eg = self.eg
        self.stats["structural_scans"] += 1
        live_in = [0] * eg.n
        trav, off, tgt, nxt, prv = eg.traversal, eg.off, eg.tgt, eg.nxt, eg.prv
        flags = self._eliminated
        live = bytearray(len(tgt))
        lo = 0

        def slot(a: int) -> int:
            return NIL if a == NIL else a - lo

        for u in range(eg.n):
            lo, hi = off[u], off[u + 1]
            chain = []
            a = eg.first[u]
            prev = NIL
            while a < hi:
                if a <= (chain[-1] if chain else lo - 1):
                    raise InvariantViolation(f"vertex {u}: chain not increasing at {slot(a)}")
                if prv[a] != prev:
                    raise InvariantViolation(
                        f"vertex {u}: prv[{slot(a)}]={slot(prv[a])}, expected {slot(prev)}"
                    )
                chain.append(a)
                live[a] = 1
                prev = a
                a = nxt[a]
            if a != hi:
                raise InvariantViolation(
                    f"vertex {u}: chain ends at {slot(a)}, not outdeg {hi - lo}"
                )
            for a in range(lo, hi):
                if live[a] and flags[a]:
                    raise InvariantViolation(
                        f"vertex {u}: eliminated slot {a - lo} reappeared in the live chain"
                    )
                if not live[a] and not flags[a]:
                    raise InvariantViolation(
                        f"vertex {u}: slot {a - lo} vanished without being eliminated"
                    )
            for a in chain:
                t = tgt[a]
                live_in[t] += 1
                if trav[t] is not None:
                    raise InvariantViolation(
                        f"live arc {u}->{t} targets visited vertex {t}"
                    )
        if live_in != self._live_in:
            raise InvariantViolation("live-in counts disagree with the link chains")
