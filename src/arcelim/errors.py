"""Exception types raised by graph construction, elimination, and traversal."""
from __future__ import annotations


class GraphError(Exception):
    """Base class for all arcelim errors."""


class TargetOutOfRange(GraphError):
    """An adjacency entry names a vertex id outside 0..n-1."""

    def __init__(self, source: int, slot: int, target: int, num_vertices: int):
        self.source = source
        self.slot = slot
        self.target = target
        self.num_vertices = num_vertices
        super().__init__(
            f"arc {source}->{target} (slot {slot}) targets a vertex outside "
            f"0..{num_vertices - 1}"
        )


class DuplicateArc(GraphError):
    """The same (source, target) arc appears more than once.

    Multigraphs are rejected: the incoming-arc table construction and the
    per-block elimination both rely on at most one arc per vertex pair.
    """

    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target
        super().__init__(f"duplicate arc {source}->{target}")


class EdgeListSyntaxError(GraphError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        # named base: the located arc errors below have two parents
        GraphError.__init__(self, f"line {line_no}: {message}")


class DuplicateArcLine(EdgeListSyntaxError, DuplicateArc):
    """A repeated arc in an edge-list file, at the line that repeats it."""

    def __init__(self, line_no: int, source: int, target: int):
        DuplicateArc.__init__(self, source, target)
        EdgeListSyntaxError.__init__(self, line_no, str(self))


class TargetOutOfRangeLine(EdgeListSyntaxError, TargetOutOfRange):
    """An arc line of an edge-list file whose target is not a vertex."""

    def __init__(self, line_no: int, source: int, slot: int, target: int, num_vertices: int):
        TargetOutOfRange.__init__(self, source, slot, target, num_vertices)
        EdgeListSyntaxError.__init__(self, line_no, str(self))


class CountMismatch(GraphError):
    """The edge-list header promised a different number of arc lines."""

    def __init__(self, declared: int, seen: int):
        self.declared = declared
        self.seen = seen
        super().__init__(f"header declares {declared} arcs, file has {seen}")


class AlreadyEliminated(GraphError):
    """eliminate() was called on a slot that is no longer live.

    In a correct traversal every arc is eliminated exactly once (its target
    is visited at most once), so this always indicates a driver bug.
    """

    def __init__(self, source: int, slot: int):
        self.source = source
        self.slot = slot
        super().__init__(f"slot {slot} of vertex {source} was already eliminated")


class InvalidStart(GraphError):
    """The requested start vertex is not a vertex of the graph."""

    def __init__(self, start: int, num_vertices: int):
        self.start = start
        self.num_vertices = num_vertices
        if num_vertices == 0:
            super().__init__(f"start vertex {start}: the graph has no vertices")
        else:
            super().__init__(f"start vertex {start} not in 0..{num_vertices - 1}")


class TooManyArcs(GraphError):
    """A generator was asked for more arcs than a simple digraph can hold."""

    def __init__(self, n: int, m: int, limit: int):
        self.n = n
        self.m = m
        self.limit = limit
        super().__init__(f"{m} arcs requested but n={n} admits at most {limit}")


class ElimGraphReused(GraphError):
    """A traversal was started on a search structure that was already used."""


class DisjointWriteViolation(GraphError):
    """Two bodies of the same parallel block wrote the same location."""

    def __init__(self, cell: tuple):
        self.cell = cell
        super().__init__(f"location {cell!r} written twice within one parallel block")


class InvariantViolation(GraphError):
    """An instrumented run observed a broken traversal invariant."""
