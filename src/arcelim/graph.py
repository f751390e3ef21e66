"""Immutable input digraphs as ordered adjacency arrays.

A graph is a plain array of per-vertex target sequences.  The position of a
target inside its source's sequence is significant: ordered DFS/BFS visit
children in exactly this order, so two graphs with equal arc sets but
different adjacency order are different inputs.

Vertices are the integers 0..n-1.  Only simple digraphs are accepted (at
most one arc per (source, target) pair); self-loops are allowed.  The
duplicate ban is load-bearing: downstream, each parallel block writes one
incoming-arc table entry per distinct target and unlinks at most one slot
per source list, and both guarantees break on repeated arcs.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (CountMismatch, DuplicateArc, DuplicateArcLine, EdgeListSyntaxError,
                     TargetOutOfRange, TargetOutOfRangeLine)


class Graph:
    """Immutable digraph over vertices 0..n-1 with ordered adjacency arrays."""

    __slots__ = ("out_lists", "num_vertices", "num_arcs")

    def __init__(self, out_lists: tuple[tuple[int, ...], ...]):
        # not validated here; go through from_adjacency / parse_edge_list
        self.out_lists = out_lists
        self.num_vertices = len(out_lists)
        self.num_arcs = sum(len(ts) for ts in out_lists)

    @classmethod
    def from_adjacency(cls, lists: Iterable[Sequence[int]]) -> Graph:
        """Build and validate a graph from per-vertex target sequences.

        Adjacency order is preserved exactly as given.  Raises
        TargetOutOfRange or DuplicateArc on invalid input; no partially
        constructed graph escapes.
        """
        out_lists = tuple(tuple(ts) for ts in lists)
        n = len(out_lists)
        for u, targets in enumerate(out_lists):
            # duplicates first: a repeated arc is the graph-shape error,
            # reported even when the repeated target is also out of range
            if len(targets) > 1:
                ordered = sorted(targets)
                for a, b in zip(ordered, ordered[1:]):
                    if a == b:
                        raise DuplicateArc(u, a)
            for slot, t in enumerate(targets):
                if not 0 <= t < n:
                    raise TargetOutOfRange(u, slot, t, n)
        return cls(out_lists)

    def outdegree(self, u: int) -> int:
        return len(self.out_lists[u])

    def targets(self, u: int) -> tuple[int, ...]:
        return self.out_lists[u]

    def arcs(self) -> Iterable[tuple[int, int]]:
        """All arcs as (source, target), source-major in adjacency order."""
        for u, targets in enumerate(self.out_lists):
            for t in targets:
                yield u, t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.out_lists == other.out_lists

    def __hash__(self) -> int:
        return hash(self.out_lists)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_arcs})"


def parse_edge_list(text: str) -> Graph:
    """Parse the textual edge-list interchange format.

    First non-comment line is ``n m``; each following non-comment line is one
    arc ``u v`` (0-based).  Per-source adjacency order is the order of
    appearance in the file.  Lines starting with ``#`` are comments; blank
    lines, trailing whitespace, and CRLF endings are tolerated.  Exactly m
    arc lines are required.  Duplicate arcs and out-of-range targets raise
    EdgeListSyntaxError subclasses (also DuplicateArc / TargetOutOfRange)
    naming the offending line.
    """
    header: tuple[int, int] | None = None
    lists: list[list[int]] = []
    seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise EdgeListSyntaxError(line_no, f"expected 'n m' header, got {line!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListSyntaxError(line_no, f"non-integer header {line!r}") from None
            if n < 0 or m < 0:
                raise EdgeListSyntaxError(line_no, f"negative count in header {line!r}")
            header = (n, m)
            lists = [[] for _ in range(n)]
            continue
        if len(fields) != 2:
            raise EdgeListSyntaxError(line_no, f"expected 'u v' arc, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListSyntaxError(line_no, f"non-integer arc {line!r}") from None
        if not 0 <= u < header[0]:
            raise EdgeListSyntaxError(line_no, f"source {u} out of range")
        seen += 1
        if seen <= header[1]:
            lists[u].append(v)
    if header is None:
        raise EdgeListSyntaxError(0, "empty input, missing 'n m' header")
    if seen != header[1]:
        raise CountMismatch(header[1], seen)
    try:
        return Graph.from_adjacency(lists)
    except DuplicateArc as err:
        at = [no for no, u, v in _arc_lines(text) if (u, v) == (err.source, err.target)]
        raise DuplicateArcLine(at[1], err.source, err.target) from None
    except TargetOutOfRange as err:
        at = [no for no, u, _ in _arc_lines(text) if u == err.source]
        raise TargetOutOfRangeLine(at[err.slot], err.source, err.slot, err.target,
                                   err.num_vertices) from None


def _arc_lines(text: str) -> Iterable[tuple[int, int, int]]:
    """(line number, source, target) of every arc line of an edge list that
    parse_edge_list already read; used only to locate a rejected arc."""
    records = ((line_no, raw.split()) for line_no, raw in enumerate(text.splitlines(), start=1)
               if raw.strip() and not raw.strip().startswith("#"))
    next(records)  # the header
    for line_no, (u, v) in records:
        yield line_no, int(u), int(v)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; adjacency order is preserved."""
    lines = [f"{g.num_vertices} {g.num_arcs}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"
