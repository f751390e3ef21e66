"""Instrumented verification of the elimination and traversal invariants.

The monitor watches an ElimGraph during a traversal and fails fast on:

* a visited vertex that still has a live incoming arc (checked after every
  visit),
* any arc eliminated more than once, or reported eliminated while its list
  still links it,
* corrupted list links, a live arc into a visited vertex anywhere, or an
  arc into a visited vertex that survived (checked structurally).

Two levels trade cost for directness:

* ``counters``: O(1) bookkeeping per elimination, reported in one call
  per block.  Exact per-target live counts give the after-every-visit
  check; finish() is one structural audit, verifying that the link chains
  agree with the bookkeeping.  Cheap enough for large randomized sweeps.
* ``paranoid``: additionally re-walks every live chain after every visit
  and checks each breadth-first level's next queue once, as the level
  ends: no live arc connects two of its members, and all of them sit at
  the level's distance.  Quadratic; meant for small graphs.

Every hook runs on the sequential driver, never inside a block, and the
monitor is the drivers' one observer: one ``after_visit`` per visit, one
``after_level`` per breadth-first level, and ``finish`` at the end.  After
each visit's elimination block has joined, the block's arcs are reported
in one call, and the monitor checks, arc by arc, that each is unlinked.  A
step that was charged but never ran is therefore caught at that visit, not
at finish().  The structural audit compares chain membership with the
eliminated flags as two whole arrays, and scans arc by arc only to name the
first arc that disagrees.

One monitor watches one structure: pass a fresh InvariantMonitor to each
build.  Violations raise InvariantViolation immediately.  The ``stats``
dict counts how many checks actually ran, so callers can assert the
monitor was live.
"""
from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import eq, sub
from typing import Iterable, Sequence

from .elim import ElimGraph, arc_slot
from .errors import InvariantViolation
from .graph import ID
from .result import ABSENT

COUNTERS = "counters"
PARANOID = "paranoid"

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 bytearray's complement, by translate


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
        # one 4-byte count per vertex: its in-degree, from the differences of
        # in_off; an array grown from an iterator keeps spare room, and the
        # whole-array slice is an exact-size copy of it
        in_off = eg.in_off
        self._live_in = array(ID, map(sub, islice(in_off, 1, None), in_off))[:]
        self._eliminated = bytearray(len(eg.tgt))

    # -- hooks called by ElimGraph / the traversal drivers --------------------

    def on_eliminate(self, arcs: Sequence[int]) -> None:
        """The arcs unlinked by the block that just joined, reported in one
        call.  Each is checked in order: not eliminated before, and no longer
        linked, by the unlink body's own liveness test (a live arc is
        pointed at by its predecessor's nxt).  Its target's live count drops
        by one, so an in-table entry that names the wrong arc is caught at
        that target's visit."""
        eg = self.eg
        nxt, prv, tgt = eg.nxt, eg.prv, eg.tgt
        flags, live_in = self._eliminated, self._live_in
        for a in arcs:
            if flags[a]:
                raise InvariantViolation(
                    "arc (source %d, slot %d) eliminated twice" % arc_slot(eg.off, a)
                )
            if nxt[prv[a]] == a:
                raise InvariantViolation(
                    "arc (source %d, slot %d) reported eliminated but still linked"
                    % arc_slot(eg.off, a)
                )
            flags[a] = 1
            live_in[tgt[a]] -= 1
        self.stats["eliminations"] += len(arcs)

    def after_visit(self, v: int) -> None:
        self.stats["visit_checks"] += 1
        if self._live_in[v] != 0:
            raise InvariantViolation(
                f"vertex {v} visited with {self._live_in[v]} live incoming arcs"
            )
        if self.level == PARANOID:
            self.verify_structure()

    def after_level(self, level: int, next_queue: Iterable[int]) -> None:
        """End of one breadth-first level: no live arc inside the next
        queue, and every member of it at distance ``level``."""
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
        distances = {self.eg.distance[u] for u in members}
        if distances and distances != {level}:
            raise InvariantViolation(
                f"level-{level} discoveries hold distances {sorted(distances)}, "
                f"expected {{{level}}}"
            )

    def finish(self) -> None:
        """End-of-traversal structural audit (all levels): verify_structure()."""
        self.verify_structure()

    # -- structural audit ------------------------------------------------------

    def verify_structure(self) -> None:
        """Walk every live circle from its head node; cross-check links, flags, counts.

        Checks, per vertex: strictly increasing arcs from the head node back
        to it, and prv mirroring nxt at every node the head included.  Then,
        over all arcs at once: chain membership equal to the not-yet-eliminated
        flags, no live arc targeting a visited vertex, and live-in counts
        matching the chains.  Messages name arcs by their slot in the
        source's list, the head -1.
        """
        eg = self.eg
        self.stats["structural_scans"] += 1
        trav, off, tgt, nxt, prv, m = eg.traversal, eg.off, eg.tgt, eg.nxt, eg.prv, eg.m
        live = bytearray(m)
        lo = h = 0

        def slot(a: int) -> int:
            return -1 if a == h else a - lo

        for u in range(eg.n):
            lo, hi, h = off[u], off[u + 1], m + u
            last = lo - 1
            prev = h
            a = nxt[h]
            while a < hi:
                if a <= last:
                    raise InvariantViolation(f"vertex {u}: chain not increasing at {slot(a)}")
                if prv[a] != prev:
                    raise InvariantViolation(
                        f"vertex {u}: prv[{slot(a)}]={slot(prv[a])}, expected {slot(prev)}"
                    )
                live[a] = 1
                prev = last = a
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
        # every arc is either in its chain or flagged eliminated, never both:
        # one complement test in C, and a scan for the first culprit if not.
        # It runs before the target test below, because an eliminated arc
        # targets a visited vertex: one relinked is named as reappeared.
        flags = self._eliminated
        if live.translate(_FLIP) != flags:
            a = list(map(eq, live, flags)).index(True)
            u, s = arc_slot(off, a)
            if live[a]:
                raise InvariantViolation(
                    f"vertex {u}: eliminated slot {s} reappeared in the live chain"
                )
            raise InvariantViolation(f"vertex {u}: slot {s} vanished without being eliminated")
        live_in = array(ID, [0]) * eg.n
        for a in compress(range(m), live):  # the live arcs, vertex by vertex
            t = tgt[a]
            if trav[t] != ABSENT:
                raise InvariantViolation(
                    f"live arc {arc_slot(off, a)[0]}->{t} targets visited vertex {t}"
                )
            live_in[t] += 1
        if live_in != self._live_in:
            raise InvariantViolation("live-in counts disagree with the link chains")
