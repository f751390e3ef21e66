"""Deterministic graph families for tests and benchmarks.

Random families take an integer seed and are reproducible bit for bit:
the same (parameters, seed) always serialize to the same edge list, on
any platform.  No generator emits self-loops or parallel arcs.
"""
from __future__ import annotations

import random

from .errors import TooManyArcs
from .graph import Graph

#: 9-vertex demonstration graph used across the test suite.  Dense core,
#: one sink (6), adjacency orders chosen so depth-first and breadth-first
#: runs from 0 walk visibly different trees.
SAMPLE9 = (
    (1, 2, 3, 4),
    (5, 0),
    (5, 3, 6, 0),
    (6, 5, 0),
    (0, 3, 6),
    (7, 3, 2, 1),
    (),
    (8, 6),
    (4, 3),
)


def sample9() -> Graph:
    """The bundled 9-vertex, 24-arc demonstration graph."""
    return Graph(SAMPLE9)


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _decode(k: int, n: int) -> tuple[int, int]:
    # pair index -> (u, v): row u lists the n-1 non-u targets in ascending order
    u, w = divmod(k, n - 1)
    return u, w + (w >= u)


def gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple digraph with exactly n vertices and m arcs.

    Sampling is a partial Fisher-Yates shuffle over the n*(n-1) possible
    arcs, so every m-subset is equally likely and the draw sequence (hence
    the output) depends only on (n, m, seed).  Per-source adjacency order
    is the order in which arcs were drawn.  Average degree is exactly m/n.
    """
    _require_positive("n", n)
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    limit = n * (n - 1)
    if m > limit:
        raise TooManyArcs(n, m, limit)
    rng = random.Random(seed)
    lists: list[list[int]] = [[] for _ in range(n)]
    if m * 2 >= limit:
        # dense: materialize the pair space and shuffle in place
        pool = list(range(limit))
        for i in range(m):
            j = rng.randrange(i, limit)
            pool[i], pool[j] = pool[j], pool[i]
            u, v = _decode(pool[i], n)
            lists[u].append(v)
    else:
        # sparse: same shuffle, displaced entries kept in a dict; position i
        # is never sampled again, so the back-swap write to it is skipped
        moved: dict[int, int] = {}
        for i in range(m):
            j = rng.randrange(i, limit)
            k = moved.get(j, j)
            moved[j] = moved.get(i, i)
            u, v = _decode(k, n)
            lists[u].append(v)
    return Graph(lists)


def complete(n: int) -> Graph:
    """All n*(n-1) ordered pairs, each adjacency list ascending."""
    _require_positive("n", n)
    return Graph([[v for v in range(n) if v != u] for u in range(n)])


def path(n: int) -> Graph:
    """The directed path 0 -> 1 -> ... -> n-1."""
    _require_positive("n", n)
    return Graph([[u + 1] for u in range(n - 1)] + [[]])


def star_out(n: int) -> Graph:
    """Center 0 with arcs to every leaf 1..n-1, ascending."""
    _require_positive("n", n)
    return Graph([list(range(1, n))] + [[] for _ in range(n - 1)])


def layered_dag(width: int, depth: int, seed: int = 0) -> Graph:
    """Layered DAG: width*depth vertices in `depth` layers, a full
    bipartite arc set between consecutive layers (m = width^2*(depth-1)).

    Diameter grows with depth while every layer offers width^2 arcs of
    parallel elimination work.  The seed shuffles each source's adjacency
    order only; the arc set itself is fixed by (width, depth).
    """
    _require_positive("width", width)
    _require_positive("depth", depth)
    rng = random.Random(seed)
    lists: list[list[int]] = []
    for layer in range(depth):
        base = (layer + 1) * width
        for _ in range(width):
            if layer == depth - 1:
                lists.append([])
            else:
                targets = list(range(base, base + width))
                rng.shuffle(targets)
                lists.append(targets)
    return Graph(lists)
