"""Mutable search structure: incoming-arc tables and unlinkable out-lists.

The traversal drivers never scan an arc twice because arcs die the moment
their target is visited: visiting v removes every arc into v, in parallel,
from the out-lists of all its sources.  To support that, every arc gets a
global id, source-major in adjacency order, and the state lives in flat
arrays indexed by arc id or vertex id (compressed sparse rows):

* ``off`` (n+1) and ``tgt`` (m): u's out-list is ``tgt[off[u]:off[u+1]]``,
  so ``a - off[u]`` is arc a's slot in its source's list;
* ``in_off`` (n+1) and ``in_arc`` (m): the in-table, v's incoming arc ids
  ``in_arc[in_off[v]:in_off[v+1]]`` ordered by source id.

``off``, ``tgt`` and ``in_off`` depend on the graph alone: they belong to
the Graph and are shared, never copied, so every structure built over one
graph reads the same three arrays, and none writes to them.  The Graph
counts ``in_off`` once, on its first search; each structure owns only
``in_arc`` and the live lists:

* ``nxt``/``prv`` (m+n): a circular doubly linked live list threaded over
  each out-list, giving O(1) unlink of any arc.  Entries below m belong to
  arcs; entry ``m + u`` is u's head node, which is never unlinked.

The out-lists themselves are never modified; a removed arc is only linked
out.  u's live arcs are ``nxt[m+u], nxt[nxt[m+u]], ...`` up to the first
id >= m, which is the head node itself; so ``nxt[m+u] >= m`` means u's
live list is exhausted, and a fresh empty list's head links to itself.
Every live node is pointed at by its predecessor, so arc a is live exactly
when ``nxt[prv[a]] == a``.

A fresh list is its arcs in id order, so the build lays every list out at
once: an untimed pre-pass points each arc at its id neighbours
(``nxt[a] = a + 1``, ``prv[a] = a - 1``), and the init block closes each
list into a circle through its head node.  The arc blocks then only fill
the in-table: each arc goes to its target's cursor, in a temporary copy of
the first slots that is freed when the blocks end.  The traversal's result
cells are made only after that, so the cursor and they never coexist.

The core invariant, established by every visit and relied on by both
drivers: a visited vertex has no live incoming arc, so following the first
live arc of any list always discovers an unvisited vertex.

In validation mode the bodies log each cell they write as one int,
``4 * index + kind``, where ``CELLS[kind]`` names one of four kinds:
``head`` (a head node and its list's two end links), ``in`` (an in-table
slot and its cursor), ``nxt`` and ``prv``.  A violation is reported with
the cell decoded to ``(name, index)``.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import islice, pairwise
from typing import TYPE_CHECKING

from .engine import ParEngine
from .errors import AlreadyEliminated, DisjointWriteViolation
from .graph import ID, Graph
from .result import ABSENT

if TYPE_CHECKING:
    from .instrument import InvariantMonitor


# the kinds of cell a validating block logs, by the index they name: a
# vertex's head node and its list's two end links (init), its in_arc slot
# and cursor (arc blocks), and one nxt or prv entry (unlink)
CELLS = ("head", "in", "nxt", "prv")
HEAD, IN, NXT, PRV = range(len(CELLS))

# the most ids the pre-pass lays out from one temporary array
RUN = 4096


def cell_name(cell: int) -> tuple[str, int]:
    """A logged cell ``4 * index + kind`` as ``(CELLS[kind], index)``."""
    index, kind = divmod(cell, 4)
    return CELLS[kind], index


def _link_neighbours(nxt: array, prv: array, m: int) -> None:
    """Point every arc at its id neighbours, ``nxt[a] = a + 1`` and
    ``prv[a] = a - 1``, in zero-filled arrays, writing one run of at most
    RUN ids at a time: run ids ``lo..hi-1`` are the nxt of the cells one
    below them and the prv of the cells one above.  ``prv[1] = 0`` is the
    zero fill's.  The run also writes ``prv[m]``, head node 0's, and leaves
    ``nxt[m - 1]`` zero; the init block sets every head node and every
    list's end links, which covers both."""
    for lo in range(1, m, RUN):
        hi = min(lo + RUN, m)
        run = array(ID, range(lo, hi))
        nxt[lo - 1:hi - 1] = run
        prv[lo + 1:hi + 1] = run


def arc_slot(off: array, a: int) -> tuple[int, int]:
    """Arc a as (source, slot in the source's list), found from ``off``."""
    u = bisect_right(off, a) - 1
    return u, a - off[u]


class ElimGraph:
    """Flat elimination state plus traversal result fields.

    Mutated only inside parallel blocks on ``engine``, the one it is built
    on, issued by a single sequential driver: the build, every visit and
    every ``eliminate``.  Block bodies write pairwise-disjoint locations.
    Within one visit's block this holds structurally: the incoming arcs of
    a vertex come from pairwise-distinct sources (simple digraph), and
    unlinking an arc touches only its own list's nxt/prv entries, one arc
    per source list per block.
    """

    def __init__(self, graph: Graph, engine: ParEngine | None = None,
                 monitor: InvariantMonitor | None = None):
        """Construct the search structure: one init block that closes each
        live list, then one block per vertex filling incoming-arc tables.

        An untimed pre-pass sizes every array, so the timed phase never
        reallocates, and lays each out-list out as a chain of its arcs in
        id order, one run of at most RUN ids at a time.  It counts
        nothing: the in-table offsets are the graph's ``in_off``, and v's
        cursor is ``cursor[v]`` in a temporary copy of in_off's first n
        cells.  Init step u then links head node ``m + u`` to u's first and
        last arc, in both directions, or to itself for an empty list, and
        vertex u's block writes each of u's arcs into its target's in-table
        at the target's cursor and advances it.  The sequential outer loop
        runs in ascending vertex id, so each in-table ends up ordered by
        source id.  Within one vertex's block all targets are distinct, so
        every location has a single writer.  The cursor is freed when the
        blocks end, and only then are the traversal's result cells made.

        Costs exactly n+1 synchronization steps and
        ceil(n/p) + sum_u ceil(outdeg(u)/p) time steps.  Laying the lists
        out moves no counted cost: the blocks keep their sizes, so the
        histogram is the same; each step still does O(1) work; and the
        chain is memory initialization, uncounted like a zero fill.
        ``monitor``, if given, watches this structure from then on; one
        that already watches another raises ValueError before any block
        is charged to ``engine``, which a traversal given no engine charges.
        """
        if monitor is not None:
            monitor.check_unattached()
        if engine is None:
            engine = ParEngine()
        self.engine = engine
        # untimed pre-pass: zeroed state arrays with every arc linked to its
        # id neighbours, and cursor[v] at v's first slot, the cursor v's
        # arc blocks advance; every array is made at its exact size, where
        # one grown from an iterator would keep spare room for the whole solve
        n, m = graph.num_vertices, graph.num_arcs
        self.n = n
        self.m = m
        self.off = off = graph.off
        self.tgt = tgt = graph.tgt
        self.in_off = graph.in_off
        cursor = self.in_off[:-1]
        self.in_arc = in_arc = array(ID, [0]) * m
        self.nxt = nxt = array(ID, [0]) * (m + n)
        self.prv = prv = array(ID, [0]) * (m + n)
        _link_neighbours(nxt, prv, m)
        self.monitor: InvariantMonitor | None = None
        self._traversed = False
        self._cell = cell = [0]  # the current unlink block's first in-table slot
        log = engine.log_write  # every body binds it once, here

        def init_body(r: range) -> None:
            for u, (lo, hi) in zip(r, pairwise(islice(off, r.start, None))):
                h = m + u
                if lo < hi:
                    nxt[h] = lo
                    prv[lo] = h
                    prv[h] = hi - 1
                    nxt[hi - 1] = h
                else:
                    nxt[h] = prv[h] = h
                if log is not None:
                    log(4 * u + HEAD)

        lo = 0  # the block's first arc id

        def arc_body(r: range) -> None:
            for i in r:
                a = lo + i
                v = tgt[a]
                c = cursor[v]
                in_arc[c] = a
                cursor[v] = c + 1
                if log is not None:
                    log(4 * v + IN)

        try:
            engine.par_for(n, init_body)
            for lo, end in pairwise(off):
                engine.par_for(end - lo, arc_body)
        except DisjointWriteViolation as exc:
            raise DisjointWriteViolation(cell_name(exc.cell)) from None
        del cursor
        # the traversal's result cells, ABSENT until a visit writes them;
        # the result takes these arrays over
        self.traversal = array(ID, [ABSENT]) * n
        self.distance = array(ID, [ABSENT]) * n
        self.parent = array(ID, [ABSENT]) * n

        def unlink_body(r: range) -> None:
            """Unlink, for each i of the chunk, arc ``in_arc[lo + i]`` from
            its source's live list in O(1), logging each write when ``log``
            is not None.

            ``lo`` is ``self._cell[0]``, read once per chunk.  The driver
            writes it before it hands the block's chunks over and not again
            until the join returns, so every chunk of a block reads the
            block's own slot, on either backend.

            Raises AlreadyEliminated if the arc is not live: a live arc is
            pointed at by its predecessor, and unlink removes that one
            pointer, so liveness is an O(1) test.
            """
            lo = cell[0]
            for a in in_arc[lo + r.start:lo + r.stop]:
                p = prv[a]
                x = nxt[a]
                if nxt[p] != a:
                    raise AlreadyEliminated(*arc_slot(off, a))
                nxt[p] = x
                prv[x] = p
                if log is not None:
                    log(4 * p + NXT)
                    log(4 * x + PRV)

        self._unlink = unlink_body  # every unlink block's body

        if monitor is not None:
            monitor.attach(self)

    @classmethod
    def build(cls, graph: Graph, engine: ParEngine | None = None,
              monitor: InvariantMonitor | None = None) -> ElimGraph:
        """The same as ``ElimGraph(graph, engine, monitor)``."""
        return cls(graph, engine, monitor)

    # -- elimination ---------------------------------------------------------

    def eliminate(self, arc: int) -> None:
        """Unlink one arc by id (tests and tools) in a one-step block on
        ``engine``, charged, checked and reported to the monitor as a
        visit's block is.  An arc outside ``0 <= arc < m`` raises
        IndexError."""
        if not 0 <= arc < self.m:
            raise IndexError(f"arc {arc} out of range: the arcs are 0 <= arc < {self.m}")
        v = self.tgt[arc]
        self._cell[0] = self.in_arc.index(arc, self.in_off[v], self.in_off[v + 1])
        # one step logs one nxt and one prv cell, which cannot collide
        self.engine.par_for(1, self._unlink)
        if self.monitor is not None:
            self.monitor.on_eliminate((arc,))

    def eliminate_incoming(self, v: int) -> None:
        """Remove every incoming arc of v in one parallel block on ``engine``.

        The sources of v's incoming arcs are pairwise distinct, so the
        block's writes are disjoint.  Always costs one synchronization step,
        even with no incoming arc.  A monitor hears of the block's arcs
        from the driver, in one call after the block has joined.
        """
        in_off = self.in_off
        lo = self._cell[0] = in_off[v]
        hi = in_off[v + 1]
        try:
            self.engine.par_for(hi - lo, self._unlink)
        except DisjointWriteViolation as exc:
            raise DisjointWriteViolation(cell_name(exc.cell)) from None
        if self.monitor is not None:
            self.monitor.on_eliminate(self.in_arc[lo:hi])

    # -- queries -------------------------------------------------------------

    def live_arcs(self, u: int) -> list[int]:
        """Ids of u's live arcs, in list order."""
        m, nxt = self.m, self.nxt
        arcs = []
        a = nxt[m + u]
        while a < m:
            arcs.append(a)
            a = nxt[a]
        return arcs

    def live_targets(self, u: int) -> list[int]:
        return [self.tgt[a] for a in self.live_arcs(u)]

    def __repr__(self) -> str:
        return f"ElimGraph(n={self.n}, m={self.m})"
