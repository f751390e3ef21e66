"""Mutable search structure: incoming-arc tables and unlinkable out-lists.

The traversal drivers never scan an arc twice because arcs die the moment
their target is visited: visiting v removes every arc into v, in parallel,
from the out-lists of all its sources.  To support that, every arc gets a
global id, source-major in adjacency order, and the state lives in flat
arrays indexed by arc id or vertex id (compressed sparse rows):

* ``off`` (n+1) and ``tgt`` (m): u's out-list is ``tgt[off[u]:off[u+1]]``,
  so ``a - off[u]`` is arc a's slot in its source's list;
* ``src`` (m): the source of each arc;
* ``in_off`` (n+1) and ``in_arc`` (m): the in-table, v's incoming arc ids
  ``in_arc[in_off[v]:in_off[v+1]]`` ordered by source id;
* ``nxt``/``prv`` (m) and ``first`` (n): a doubly linked live list threaded
  over each out-list, giving O(1) unlink of any arc.

The out-lists themselves are never modified; a removed arc is only linked
out.  ``off[u+1]`` is the end sentinel of u's list, so ``first[u] ==
off[u+1]`` means u's live list is exhausted; ``prv`` holds -1 (NIL) at the
head of a list.

The core invariant, established by every visit and relied on by both
drivers: a visited vertex has no live incoming arc, so following the first
live arc of any list always discovers an unvisited vertex.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import AlreadyEliminated
from .graph import Graph

if TYPE_CHECKING:
    from .engine import ParEngine
    from .instrument import InvariantMonitor

NIL = -1
ID = "i"  # array typecode of arc and vertex ids


class ElimGraph:
    """Flat elimination state plus traversal result fields.

    Mutated only inside parallel blocks issued by a single sequential
    driver; block bodies write pairwise-disjoint locations.  Within one
    visit's block this holds structurally: the incoming arcs of a vertex
    come from pairwise-distinct sources (simple digraph), and unlinking an
    arc touches only its own list's first/nxt/prv entries, one arc per
    source list per block.
    """

    def __init__(self, graph: Graph):
        # untimed pre-pass: CSR out-lists, in-table offsets from the
        # in-degree counts, and zeroed state arrays
        n, m = graph.num_vertices, graph.num_arcs
        self.graph = graph
        self.n = n
        self.off = array(ID, accumulate(map(len, graph.out_lists), initial=0))
        self.tgt = array(ID, chain.from_iterable(graph.out_lists))
        counts = Counter(self.tgt)
        self.in_off = array(ID, accumulate(map(counts.__getitem__, range(n)), initial=0))
        self.src = array(ID, [0]) * m
        self.in_arc = array(ID, [0]) * m
        self.nxt = array(ID, [0]) * m
        self.prv = array(ID, [0]) * m
        self.first = array(ID, [0]) * n
        self.indeg = array(ID, [0]) * n
        self.traversal: list[int | None] = [None] * n
        self.distance: list[int | None] = [None] * n
        self.parent: list[int | None] = [None] * n
        self.monitor: InvariantMonitor | None = None
        self._traversed = False

    @classmethod
    def build(cls, graph: Graph, engine: ParEngine | None = None,
              monitor: InvariantMonitor | None = None) -> ElimGraph:
        """Construct the search structure: one init block, then one block
        per vertex filling incoming-arc tables and list links.

        The sequential outer loop runs in ascending vertex id, so each
        in-table ends up ordered by source id.  Within one vertex's block
        all targets are distinct, so every location has a single writer.
        Costs exactly n+1 synchronization steps and
        ceil(n/p) + sum_u ceil(outdeg(u)/p) time steps; the arrays are
        sized by an untimed pre-pass, so the timed phase never reallocates.
        """
        from .engine import ParEngine

        if engine is None:
            engine = ParEngine()
        eg = cls(graph)
        off, tgt, src, in_off, in_arc = eg.off, eg.tgt, eg.src, eg.in_off, eg.in_arc
        indeg, first, nxt, prv = eg.indeg, eg.first, eg.nxt, eg.prv
        log = engine.log_write if engine.validate_writes else None

        def init_body(u: int) -> None:
            indeg[u] = 0
            first[u] = off[u]
            if log is not None:
                log(("indeg", u))
                log(("first", u))

        engine.par_for(eg.n, init_body)

        u = lo = 0  # the block's source vertex and its first arc id

        def arc_body(i: int) -> None:
            a = lo + i
            v = tgt[a]
            d = indeg[v]
            in_arc[in_off[v] + d] = a
            indeg[v] = d + 1
            src[a] = u
            nxt[a] = a + 1
            prv[a] = a - 1 if i else NIL
            if log is not None:
                log(("in", v))  # in_arc slot and indeg of v
                log(("arc", a))  # src, nxt and prv of a

        for u in range(eg.n):
            lo = off[u]
            engine.par_for(off[u + 1] - lo, arc_body)

        if monitor is not None:
            monitor.attach(eg)
        return eg

    # -- elimination ---------------------------------------------------------

    def _unlinker(self, ids: Sequence[int], lo: int,
                  log: Optional[Callable[[tuple], None]]) -> Callable[[int], None]:
        """Block body that unlinks arc ``ids[lo + i]`` from its source's
        live list in O(1), logging each write when ``log`` is given.

        Raises AlreadyEliminated if the arc is not live: a live arc is
        pointed at by its predecessor (or by first), and unlink removes that
        one pointer, so liveness is an O(1) test.
        """
        src, off, first, nxt, prv = self.src, self.off, self.first, self.nxt, self.prv
        monitor = self.monitor

        def body(i: int) -> None:
            a = ids[lo + i]
            u = src[a]
            p = prv[a]
            x = nxt[a]
            if p == NIL:
                if first[u] != a:
                    raise AlreadyEliminated(u, a - off[u])
                first[u] = x
                if log is not None:
                    log(("first", u))
            else:
                if nxt[p] != a:
                    raise AlreadyEliminated(u, a - off[u])
                nxt[p] = x
                if log is not None:
                    log(("nxt", p))
            if x < off[u + 1]:
                prv[x] = p
                if log is not None:
                    log(("prv", x))
            if monitor is not None:
                monitor.on_eliminate(a)

        return body

    def eliminate(self, arc: int) -> None:
        """Unlink one arc by id, outside any block (tests and tools)."""
        self._unlinker((arc,), 0, None)(0)

    def eliminate_incoming(self, v: int, engine: ParEngine) -> None:
        """Remove every incoming arc of v in one parallel block.

        The sources of v's incoming arcs are pairwise distinct, so the
        block's writes are disjoint.  Always costs one synchronization step,
        even for indeg(v) == 0.
        """
        lo = self.in_off[v]
        log = engine.log_write if engine.validate_writes else None
        engine.par_for(self.in_off[v + 1] - lo, self._unlinker(self.in_arc, lo, log))

    # -- queries -------------------------------------------------------------

    def first_live_target(self, u: int) -> int | None:
        """Target of u's first live arc, or None if the list is exhausted."""
        a = self.first[u]
        if a < self.off[u + 1]:
            return self.tgt[a]
        return None

    def live_arcs(self, u: int) -> list[int]:
        """Ids of u's live arcs, in list order."""
        arcs = []
        a = self.first[u]
        end = self.off[u + 1]
        while a < end:
            arcs.append(a)
            a = self.nxt[a]
        return arcs

    def live_targets(self, u: int) -> list[int]:
        return [self.tgt[a] for a in self.live_arcs(u)]

    def dump(self) -> str:
        """Deterministic per-vertex state dump, for golden tests; ``first``
        is given as a slot of the vertex's list."""
        lines = []
        for u in range(self.n):
            live = ",".join(str(t) for t in self.live_targets(u))
            first = self.first[u] - self.off[u]
            lines.append(f"{u}: live=[{live}] first={first} indeg={self.indeg[u]}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"ElimGraph(n={self.n}, m={self.graph.num_arcs})"
