"""The outcome of one traversal, shared by the parallel drivers and the
sequential references.

Each per-vertex field is one unsigned ``array(ID)`` of cells, with the one
value ``ABSENT`` for a vertex that has no number, parent or distance.  A
visit number is stored less the run's first number ``a``, so any ``a``
fits: the cells of a run hold 0, 1, ..., visited_count - 1.  A result has
one way in, ``TraversalResult.collect``, which takes a run's cells as they
are, with no copy.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional


ABSENT = 0xFFFFFFFF  # the largest ID value: no visit number, parent or distance


class Column(Sequence):
    """A read-only view of one field's cells: ``cells[v] + base``, or None
    where the cell is ABSENT; a slice reads as a tuple of those values.

    Two columns over equal cells and the same base compare in C; any other
    pair compares value by value.  A column hashes as the tuple of its
    values.
    """

    __slots__ = ("_cells", "_base")

    def __init__(self, cells: array, base: int = 0):
        self._cells = cells
        self._base = base

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, v: int | slice) -> Optional[int] | tuple[Optional[int], ...]:
        if isinstance(v, slice):
            return tuple(Column(self._cells[v], self._base))
        x = self._cells[v]
        return None if x == ABSENT else x + self._base

    def __iter__(self) -> Iterator[Optional[int]]:
        base = self._base
        return (None if x == ABSENT else x + base for x in self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self._base == other._base:
            return self._cells == other._cells
        return list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Column({list(self)!r})"


@dataclass(frozen=True)
class TraversalResult:
    """Per-vertex outputs of a single search run.

    ``traversal`` holds the visit numbers, ``parent`` the search-tree
    parents (absent for start vertices and unreachable vertices), and
    ``distance`` the hop counts (breadth-first runs only).  Each is a
    read-only sequence of ``Optional[int]`` that reads None where absent.
    Visited vertices carry the numbers ``a, a+1, ..., a+visited_count-1``
    where ``a`` was the first number of the run, so ``next_number`` is
    always ``a + visited_count``.
    """

    traversal: Column
    parent: Column
    distance: Column
    visited_count: int
    next_number: int

    @classmethod
    def collect(cls, traversal: array, parent: array, distance: array,
                next_number: int, visited_count: int) -> "TraversalResult":
        """The result of a run that visited ``visited_count`` vertices and
        numbered up to ``next_number``, from its ``array(ID)`` cells, visit
        numbers stored less the first number.  The result takes the cells
        without a copy, so nothing may write to them after."""
        a = next_number - visited_count
        return cls(Column(traversal, a), Column(parent), Column(distance),
                   visited_count, next_number)

    def visited(self) -> list[int]:
        """Vertex ids with a traversal number, in visit order."""
        # the cells hold 0 .. visited_count - 1, one per visited vertex:
        # invert that permutation
        order = [0] * self.visited_count
        for v, t in enumerate(self.traversal._cells):
            if t != ABSENT:
                order[t] = v
        return order

    def trace(self) -> Iterator[str]:
        """One line ``visit v number=t level=d`` per visited vertex, in
        visit order, where d is v's depth in the search forest, counted
        along ``parent`` from its root at 0; in a breadth-first run that
        is v's distance."""
        a = self.traversal._base
        parent = self.parent._cells
        depth = [0] * len(parent)  # filled in visit order: a parent comes before its child
        for t, v in enumerate(self.visited()):
            p = parent[v]
            d = depth[v] = 0 if p == ABSENT else depth[p] + 1
            yield f"visit {v} number={a + t} level={d}"

    def serialize(self) -> str:
        """One line per vertex: ``v traversal parent distance``, absent
        fields as ``-``, sorted by vertex id."""
        a = self.traversal._base  # parents and distances are stored as they are
        cells = (field._cells.tolist() for field in (self.traversal, self.parent, self.distance))
        return "".join([
            f"{v} {'-' if t == ABSENT else t + a} {'-' if p == ABSENT else p} "
            f"{'-' if d == ABSENT else d}\n"
            for v, (t, p, d) in enumerate(zip(*cells))
        ])
