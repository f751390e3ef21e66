"""arcelim: ordered parallel DFS and BFS by arc elimination.

Build an immutable Graph and solve it: solve(graph, DFS, processors=8)
opens a ParEngine, derives the linked search structure, runs one search
and returns the result with its build cost and the closed engine.  For the
structure itself, build ElimGraph(graph, engine) inside the engine's
``with`` and traverse it with dfs, bfs or sweep.
Every visit eliminates the fresh vertex's incoming arcs in one parallel block,
so the drivers never rescan dead arcs: a traversal visiting k vertices
costs exactly k synchronization steps and O(m/p + k) metered time.
Results are identical for every processor count and backend, and equal
to the sequential textbook procedures in oracle.py.
"""
from .elim import ElimGraph
from .engine import SIMULATED, THREADED, CostReport, ParEngine
from .errors import (
    AlreadyEliminated,
    CountMismatch,
    DisjointWriteViolation,
    DuplicateArc,
    EdgeListSyntaxError,
    ElimGraphReused,
    GraphError,
    GraphTooLarge,
    InvalidStart,
    InvariantViolation,
    TargetNotInteger,
    TargetOutOfRange,
    TooManyArcs,
)
from .generators import (
    SAMPLE9,
    complete,
    gnm,
    layered_dag,
    path,
    sample9,
    star_out,
)
from .graph import Graph, parse_edge_list, serialize_edge_list
from .instrument import COUNTERS, PARANOID, InvariantMonitor
from .oracle import seq_bfs, seq_dfs
from .result import TraversalResult
from .traverse import (
    BFS,
    DFS,
    KINDS,
    MatchReport,
    bfs,
    compare_results,
    dfs,
    solve,
    sweep,
    verify_against_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AlreadyEliminated",
    "BFS",
    "COUNTERS",
    "CostReport",
    "CountMismatch",
    "DFS",
    "DisjointWriteViolation",
    "DuplicateArc",
    "EdgeListSyntaxError",
    "ElimGraph",
    "ElimGraphReused",
    "Graph",
    "GraphError",
    "GraphTooLarge",
    "InvalidStart",
    "InvariantMonitor",
    "InvariantViolation",
    "KINDS",
    "MatchReport",
    "PARANOID",
    "ParEngine",
    "SAMPLE9",
    "SIMULATED",
    "THREADED",
    "TargetNotInteger",
    "TargetOutOfRange",
    "TooManyArcs",
    "TraversalResult",
    "bfs",
    "compare_results",
    "complete",
    "dfs",
    "gnm",
    "layered_dag",
    "parse_edge_list",
    "path",
    "sample9",
    "seq_bfs",
    "seq_dfs",
    "serialize_edge_list",
    "solve",
    "star_out",
    "sweep",
    "verify_against_oracle",
]
