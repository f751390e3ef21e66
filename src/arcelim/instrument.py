"""Instrumented verification of the elimination and traversal invariants.

The monitor watches an ElimGraph during a traversal and fails fast on:

* a visited vertex that still has a live incoming arc (checked after every
  visit),
* any arc eliminated more than once, or reported eliminated while its list
  still links it,
* corrupted list links, a live arc into a visited vertex anywhere, or an
  arc into a visited vertex that survived (checked structurally).

Two levels trade cost for directness:

* ``counters``: O(1) bookkeeping per elimination.  Exact per-target live
  counts give the after-every-visit check; finish() is one structural
  audit, verifying that the link chains agree with the bookkeeping.
  Cheap enough for large randomized sweeps.
* ``paranoid``: additionally re-walks every live chain after every visit
  and checks the level-queue properties of breadth-first runs (members of
  the current queue share one distance; no live arc connects two members
  of the next-level queue).  Quadratic; meant for small graphs.

Every hook runs on the sequential driver, never inside a block: after each
visit's elimination block has joined, the driver reports the block's arcs
one by one, and the monitor checks that each is unlinked.  A step that was
charged but never ran is therefore caught at that visit, not at finish().

One monitor watches one structure: pass a fresh InvariantMonitor to each
build.  Violations raise InvariantViolation immediately.  The ``stats``
dict counts how many checks actually ran, so callers can assert the
monitor was live.
"""
from __future__ import annotations

from array import array
from typing import Iterable

from .elim import ElimGraph, arc_slot
from .errors import InvariantViolation
from .graph import ID
from .result import ABSENT

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

    def check_unattached(self) -> None:
        """ValueError if this monitor already watches a search structure;
        a build calls it before its first block."""
        if self.eg is not None:
            raise ValueError("this monitor already watches a search structure; "
                             "pass a fresh monitor to each build")

    def attach(self, eg: ElimGraph) -> None:
        """Watch ``eg``, which has just been built; ValueError if already watching one."""
        self.check_unattached()
        self.eg = eg
        eg.monitor = self
        # one 4-byte count per vertex: its in-degree, from the differences of in_off
        in_off = eg.in_off
        live_in = in_off[1:]
        for v in range(eg.n):
            live_in[v] -= in_off[v]
        self._live_in = live_in
        self._eliminated = bytearray(len(eg.tgt))

    # -- hooks called by ElimGraph / the traversal drivers --------------------

    def on_eliminate(self, arc: int) -> None:
        """One arc unlinked by the block that just joined.  The liveness
        test is the unlink body's own: a live arc is pointed at by its
        predecessor's nxt."""
        eg = self.eg
        if self._eliminated[arc]:
            raise InvariantViolation(
                "arc (source %d, slot %d) eliminated twice" % arc_slot(eg.off, arc)
            )
        if eg.nxt[eg.prv[arc]] == arc:
            raise InvariantViolation(
                "arc (source %d, slot %d) reported eliminated but still linked"
                % arc_slot(eg.off, arc)
            )
        self._eliminated[arc] = 1
        self._live_in[eg.tgt[arc]] -= 1
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
        """End-of-traversal structural audit (all levels): verify_structure()."""
        self.verify_structure()

    # -- structural audit ------------------------------------------------------

    def verify_structure(self) -> None:
        """Walk every live circle from its head node; cross-check links, flags, counts.

        Checks, per vertex: strictly increasing arcs from the head node back
        to it, prv mirroring nxt at every node the head included, chain
        membership equal to the not-yet-eliminated flags, live-in counts
        matching the chains, and no live arc targeting a visited vertex.
        Messages name arcs by their slot in the source's list, the head -1.
        """
        eg = self.eg
        self.stats["structural_scans"] += 1
        live_in = array(ID, [0]) * eg.n
        trav, off, tgt, nxt, prv, m = eg.traversal, eg.off, eg.tgt, eg.nxt, eg.prv, eg.m
        flags = self._eliminated
        live = bytearray(len(tgt))
        lo = h = 0

        def slot(a: int) -> int:
            return -1 if a == h else a - lo

        for u in range(eg.n):
            lo, hi, h = off[u], off[u + 1], m + u
            chain = []
            prev = h
            a = nxt[h]
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
            if a != h:
                went = ("arc (source %d, slot %d)" % arc_slot(off, a) if a < m
                        else f"the head node of vertex {a - m}")
                raise InvariantViolation(
                    f"vertex {u}: chain ends at {went}, not at its own head node -1"
                )
            if prv[h] != prev:
                raise InvariantViolation(
                    f"vertex {u}: prv[{slot(h)}]={slot(prv[h])}, expected {slot(prev)}"
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
                if trav[t] != ABSENT:
                    raise InvariantViolation(
                        f"live arc {u}->{t} targets visited vertex {t}"
                    )
        if live_in != self._live_in:
            raise InvariantViolation("live-in counts disagree with the link chains")
