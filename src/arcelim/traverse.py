"""Ordered parallel depth- and breadth-first search.

Both drivers visit vertices in exactly the order of their sequential
textbook counterparts scanning adjacency lists left to right; what is
parallel is the arc elimination fired once per visit, which unlinks all
incoming arcs of the fresh vertex in one block.  Because of that, the
"first live arc" of any vertex always points at an unvisited target, and
the drivers never rescan dead arcs.  One block per visit means a run that
visits k vertices costs exactly k synchronization steps at any processor
count, and the result is identical for every processor count and backend.

Sequential driver steps are counted one unit per constant-time action:
visiting (numbering plus parent/distance bookkeeping), checking a vertex
for a live arc, and for breadth-first runs enqueue, dequeue, and per-level
queue swap.  Each driver counts its steps itself and charges them to the
engine once, with one ``seq_tick``, when its run ends.  A search visiting
k vertices over L breadth-first levels (max distance + 1) charges exactly
3k - 1 units (depth-first) or 5k - 1 + L (breadth-first); a sweep of n
vertices with R roots charges 3n - R, or 5n - R plus the sum of L over the
roots' trees.

A run is charged to the engine its structure was built on, so every block
of one structure runs on one engine.  ``engine=`` is accepted for callers
that name it and must be that engine.  A threaded engine closed before the
run refuses its first block, so traverse inside the engine's ``with``.  The
drivers' one observer is the structure's monitor, if any: one call per
visit, one per breadth-first level.  A trace is read from the result.

``solve`` is that whole sequence in one call: it opens an engine, builds,
runs one search and closes the engine, and returns the build's cost with
the engine, from which the traversal's cost is the difference.  It refuses
an unknown kind or a start outside 0..n-1 before it opens the engine.

One table, ``_SEARCHES``, maps each kind to its driver and its sequential
oracle; ``KINDS`` is its keys.  ``sweep``, ``solve`` and
``verify_against_oracle`` look the kind up there, and only ``_lookup``
refuses a kind it does not hold.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

from .elim import ElimGraph
from .engine import SIMULATED, CostReport, ParEngine
from .errors import ElimGraphReused, InvalidStart
from .graph import ID, Graph
from .instrument import InvariantMonitor
from .oracle import seq_bfs, seq_dfs
from .result import ABSENT, TraversalResult

DFS = "dfs"
BFS = "bfs"


def _visit(eg: ElimGraph, v: int, parent: int, k: int) -> int:
    """One visit, the unit step of both drivers: eliminate v's incoming arcs
    in one block, number v ``k`` and record its parent (ABSENT for a
    root).  Returns k + 1; the caller counts the visit's driver step."""
    eg.eliminate_incoming(v)
    eg.traversal[v] = k
    eg.parent[v] = parent
    if eg.monitor is not None:
        eg.monitor.after_visit(v)
    return k + 1


def _dfs(eg: ElimGraph, s: int, k: int) -> int:
    m, nxt, tgt = eg.m, eg.nxt, eg.tgt
    k = _visit(eg, s, ABSENT, k)
    ticks = 1  # the visit of s
    stack = array(ID, [s])  # one 4-byte cell per frame, not an int object
    while stack:
        v = stack[-1]
        ticks += 1  # the "any live arc left?" test at v
        a = nxt[m + v]
        if a >= m:
            stack.pop()
            continue
        w = tgt[a]
        # w is necessarily unvisited: a visited vertex has no live incoming arc
        k = _visit(eg, w, v, k)
        ticks += 1  # the visit of w
        stack.append(w)
    eg.engine.seq_tick(ticks)
    return k


def _bfs(eg: ElimGraph, s: int, k: int) -> int:
    monitor = eg.monitor
    m, nxt, tgt, distance = eg.m, eg.nxt, eg.tgt, eg.distance
    level = 0
    distance[s] = 0
    k = _visit(eg, s, ABSENT, k)
    ticks = 1  # the visit of s
    q: deque[int] = deque([s])
    ticks += 1  # enqueue s
    q_next: deque[int] = deque()
    while q:
        level += 1
        ticks += 1  # level advance and queue swap
        while q:
            u = q.popleft()
            ticks += 1  # dequeue
            while True:
                ticks += 1  # the "any live arc left?" test at u
                a = nxt[m + u]
                if a >= m:
                    break
                v = tgt[a]
                distance[v] = level
                k = _visit(eg, v, u, k)
                ticks += 1  # the visit of v
                q_next.append(v)
                ticks += 1  # enqueue
        if monitor is not None:
            monitor.after_level(level, q_next)
        q, q_next = q_next, q
    eg.engine.seq_tick(ticks)
    return k


Driver = Callable[[ElimGraph, int, int], int]

# kind -> (driver, sequential oracle)
_SEARCHES = {DFS: (_dfs, seq_dfs), BFS: (_bfs, seq_bfs)}
KINDS = tuple(_SEARCHES)


def _lookup(kind: str) -> Driver:
    """The driver of ``kind``; tested against ``KINDS`` so that any other
    value, hashable or not, raises the same ``ValueError``."""
    if kind not in KINDS:
        raise ValueError(f"unknown traversal kind {kind!r}")
    return _SEARCHES[kind][0]


def _check_start(s: int, n: int) -> None:
    """A start must be a vertex: ``0 <= s < n``."""
    if not 0 <= s < n:
        raise InvalidStart(s, n)


def _check_engine(eg: ElimGraph, given: Optional[ParEngine]) -> None:
    """``engine=``, if given, must be the one the structure was built on."""
    if given is not None and given is not eg.engine:
        raise ValueError("engine= must be the engine this search structure was built on")


def _search(eg: ElimGraph, starts: Iterable[int], driver: Driver, a: int) -> TraversalResult:
    """Run ``driver`` from every start that is still unvisited, numbering
    continuously from a, then close the monitor and collect the result."""
    if eg._traversed:
        raise ElimGraphReused(
            "this search structure already ran a traversal; build a fresh one"
        )
    eg._traversed = True
    traversal = eg.traversal
    k = 0  # visits so far: the next visit number less a
    for s in starts:
        if traversal[s] == ABSENT:
            k = driver(eg, s, k)
    if eg.monitor is not None:
        eg.monitor.finish()
    return TraversalResult.collect(traversal, eg.parent, eg.distance, a + k, k)


def dfs(eg: ElimGraph, s: int, a: int = 0,
        engine: Optional[ParEngine] = None) -> TraversalResult:
    """Ordered depth-first search from s, numbering from a.

    Recursion is replaced by an explicit stack; after a subtree returns,
    re-reading the parent's first live arc resumes the scan exactly where
    the recursive procedure would, because visiting the child eliminated
    the arc that was scanned.
    """
    _check_start(s, eg.n)
    _check_engine(eg, engine)
    return _search(eg, (s,), _dfs, a)


def bfs(eg: ElimGraph, s: int, a: int = 0,
        engine: Optional[ParEngine] = None) -> TraversalResult:
    """Ordered breadth-first search from s, numbering from a.

    Two-queue level structure: the current level is drained while
    discoveries are collected for the next one.  Eliminating each fresh
    vertex's incoming arcs up front guarantees no vertex enters a queue
    twice, and no live arc ever connects two members of the next queue.
    """
    _check_start(s, eg.n)
    _check_engine(eg, engine)
    return _search(eg, (s,), _bfs, a)


def sweep(eg: ElimGraph, kind: str, a: int = 0,
          engine: Optional[ParEngine] = None) -> TraversalResult:
    """Full-graph extension: restart the search on every still-unvisited
    vertex in id order, numbering continuously.  Parents form a forest,
    one tree per restart."""
    driver = _lookup(kind)
    _check_engine(eg, engine)
    return _search(eg, range(eg.n), driver, a)


@dataclass(frozen=True)
class MatchReport:
    """Field-by-field comparison of two traversal results."""

    ok: bool
    mismatches: tuple[str, ...]


def compare_results(driver: TraversalResult, oracle: TraversalResult) -> MatchReport:
    diffs: list[str] = []
    if len(driver.traversal) != len(oracle.traversal):
        diffs.append(
            f"vertex count: driver={len(driver.traversal)} oracle={len(oracle.traversal)}"
        )
        return MatchReport(False, tuple(diffs))
    for field in ("traversal", "parent", "distance"):
        got = getattr(driver, field)
        want = getattr(oracle, field)
        if got == want:  # in C when both hold their cells at the same base
            continue
        for v, (x, y) in enumerate(zip(got, want)):
            if x != y:
                diffs.append(f"{field}[{v}]: driver={x} oracle={y}")
    if driver.visited_count != oracle.visited_count:
        diffs.append(
            f"visited_count: driver={driver.visited_count} oracle={oracle.visited_count}"
        )
    if driver.next_number != oracle.next_number:
        diffs.append(
            f"next_number: driver={driver.next_number} oracle={oracle.next_number}"
        )
    return MatchReport(not diffs, tuple(diffs))


@dataclass(frozen=True)
class Solved:
    """One build and traversal.  ``build`` is the build's cost at the
    engine's p; ``engine`` is closed, and ``engine.report(p)`` is the whole
    run's cost at any p; ``wall_ns`` is the wall time of build and
    traversal together."""

    result: TraversalResult
    build: CostReport
    engine: ParEngine
    wall_ns: int


def solve(g: Graph, kind: str, start: int = 0, a: int = 0, processors: int = 1,
          backend: str = SIMULATED, validate: bool = False,
          monitor: Optional[InvariantMonitor] = None) -> Solved:
    """Build the search structure of g on a fresh engine and run one
    ``kind`` search from ``start``, numbering from a.  ``validate`` checks
    every block's writes, and ``monitor``, if given, watches the run."""
    driver = _lookup(kind)
    _check_start(start, g.num_vertices)
    with ParEngine(processors, backend=backend, validate_writes=validate) as engine:
        t0 = perf_counter_ns()
        eg = ElimGraph(g, engine, monitor)
        build = engine.report()
        result = _search(eg, (start,), driver, a)
        wall_ns = perf_counter_ns() - t0
    return Solved(result, build, engine, wall_ns)


def verify_against_oracle(
    g: Graph,
    s: int,
    kind: str,
    processors: int = 1,
    backend: str = SIMULATED,
) -> MatchReport:
    """Solve from s and run the sequential reference (both numbering from
    0), and report field-by-field equality."""
    got = solve(g, kind, s, processors=processors, backend=backend).result
    return compare_results(got, _SEARCHES[kind][1](g, s, 0))
