"""One solve as a user runs it, and the gate every solve must pass.

Callables of ``arcelim`` modules are looked up at call time (``traverse.dfs``
rather than an imported ``dfs``) so that a tracer installed around a solve
sees them; classes are patched in place and can be imported directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from arcelim import oracle, traverse
from arcelim.elim import ElimGraph
from arcelim.engine import CostReport, ParEngine
from arcelim.graph import Graph
from arcelim.instrument import COUNTERS, InvariantMonitor
from arcelim.result import TraversalResult
from arcelim.traverse import DFS, MatchReport


@dataclass(frozen=True)
class Solved:
    result: TraversalResult
    built: CostReport  # engine counters after ElimGraph.build
    total: CostReport  # engine counters after the traversal
    monitor: Optional[InvariantMonitor]
    match: Optional[MatchReport]  # the in-solve oracle comparison, if any


def solve(g: Graph, kind: str, processors: int, backend: str, verified: bool) -> Solved:
    """Engine creation to returned result, engine closed; start vertex 0.

    ``verified`` adds the ``counters`` monitor and write validation, and
    runs the sequential oracle and the comparison after the engine closes.
    """
    monitor = InvariantMonitor(COUNTERS) if verified else None
    with ParEngine(processors, backend=backend, validate_writes=verified) as engine:
        eg = ElimGraph.build(g, engine, monitor=monitor)
        built = engine.report()
        result = (traverse.dfs if kind == DFS else traverse.bfs)(eg, 0, 0, engine)
        total = engine.report()
    match = None
    if verified:
        match = traverse.compare_results(result, oracle_run(g, kind))
    return Solved(result, built, total, monitor, match)


def oracle_run(g: Graph, kind: str) -> TraversalResult:
    return (oracle.seq_dfs if kind == DFS else oracle.seq_bfs)(g, 0)


def indegrees(g: Graph) -> list[int]:
    indeg = [0] * g.num_vertices
    for targets in g.out_lists:
        for t in targets:
            indeg[t] += 1
    return indeg


def model_time(blocks: list[int], seq_steps: int, p: int) -> int:
    """Counted time at p processors from the block sizes of one run:
    every block of k items costs ceil(k/p), every driver step costs 1."""
    return sum(-(-k // p) for k in blocks) + seq_steps


RESULT_FIELDS = ("traversal", "parent", "distance", "visited_count", "next_number")


def _first_difference(got, expected) -> str:
    if isinstance(got, tuple) and isinstance(expected, tuple) and len(got) == len(expected):
        v = next(v for v, (x, y) in enumerate(zip(got, expected)) if x != y)
        return f"[{v}] got {got[v]}, oracle {expected[v]}"
    return f"got {got}, oracle {expected}"


def problems(g: Graph, indeg: list[int], s: Solved, want: TraversalResult,
             processors: int, blocks: Optional[list[int]] = None) -> list[str]:
    """Every way one solve breaks its contract; empty when it is correct.

    Checks the result field by field against the oracle's ``want``, with
    the benchmark's own comparison rather than the package's, and the cost
    identities of the model: the build synchronizes n + 1 times, the
    traversal once per visit, work is n + m plus the indegrees of the
    visited vertices, and the counted time equals ``model_time`` of the
    recorded ``blocks`` (when given) and work + seq_steps at p = 1.
    """
    found = []
    for field in RESULT_FIELDS:
        got, expected = getattr(s.result, field), getattr(want, field)
        if got != expected:
            found.append(f"oracle mismatch in {field}: {_first_difference(got, expected)}")
    if s.match is not None and not s.match.ok:
        found.append(f"in-solve oracle mismatch: {s.match.mismatches[0]}")
    n, m = g.num_vertices, g.num_arcs
    visited = s.result.visited_count
    traversed = s.total - s.built
    if s.built.sync_steps != n + 1:
        found.append(f"build sync_steps {s.built.sync_steps} != n + 1 = {n + 1}")
    if traversed.sync_steps != visited:
        found.append(f"traversal sync_steps {traversed.sync_steps} != visited {visited}")
    work = n + m + sum(indeg[v] for v, t in enumerate(s.result.traversal) if t is not None)
    if s.total.work != work:
        found.append(f"work {s.total.work} != n + m + indeg(visited) = {work}")
    if blocks is not None:
        derived = model_time(blocks, s.total.seq_steps, processors)
        if derived != s.total.time_steps:
            found.append(f"derived time_steps {derived} != reported {s.total.time_steps}")
    if processors == 1 and s.total.time_steps != s.total.work + s.total.seq_steps:
        found.append(f"p=1 time_steps {s.total.time_steps} != work + seq_steps")
    return found
