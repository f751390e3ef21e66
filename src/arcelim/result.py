"""The outcome of one traversal, shared by the parallel drivers and the
sequential references."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


def _cell(value: Optional[int]) -> str:
    return "-" if value is None else str(value)


@dataclass(frozen=True)
class TraversalResult:
    """Per-vertex outputs of a single search run.

    ``traversal`` holds the visit numbers, ``parent`` the search-tree
    parents (absent for start vertices and unreachable vertices), and
    ``distance`` the hop counts (breadth-first runs only).  Visited
    vertices carry the numbers ``a, a+1, ..., a+visited_count-1`` where
    ``a`` was the first number of the run, so ``next_number`` is always
    ``a + visited_count``.
    """

    traversal: tuple[Optional[int], ...]
    parent: tuple[Optional[int], ...]
    distance: tuple[Optional[int], ...]
    visited_count: int
    next_number: int

    @classmethod
    def collect(
        cls,
        traversal: Sequence[Optional[int]],
        parent: Sequence[Optional[int]],
        distance: Sequence[Optional[int]],
        next_number: int,
    ) -> "TraversalResult":
        visited = len(traversal) - traversal.count(None)
        return cls(tuple(traversal), tuple(parent), tuple(distance), visited, next_number)

    def visited(self) -> list[int]:
        """Vertex ids with a traversal number, in visit order."""
        order = [v for v, t in enumerate(self.traversal) if t is not None]
        order.sort(key=lambda v: self.traversal[v])
        return order

    def serialize(self) -> str:
        """One line per vertex: ``v traversal parent distance``, absent
        fields as ``-``, sorted by vertex id."""
        lines = [
            f"{v} {_cell(self.traversal[v])} {_cell(self.parent[v])} {_cell(self.distance[v])}"
            for v in range(len(self.traversal))
        ]
        return "\n".join(lines) + "\n" if lines else ""
