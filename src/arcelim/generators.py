"""Deterministic graph families for tests and benchmarks.

Random families take an integer seed and are reproducible bit for bit:
the same (parameters, seed) always serialize to the same edge list, on
any platform.  No generator emits self-loops or parallel arcs.

Every random choice is one draw below some bound w, taken from
``random.Random(seed).getrandbits`` alone by the rule CPython's
``randrange`` and ``shuffle`` apply underneath: with ``b =
w.bit_length()``, draw ``getrandbits(b)`` again while it is at least w.
The graphs are therefore the ones those methods give, but they rest only
on the Mersenne Twister's 32-bit words, the stream behind ``random()``,
whose sequence for a seed the Python docs promise to keep.  They make no
such promise for ``randrange`` and ``shuffle``, Python-level algorithms.
tests/test_generators.py pins the SHA-256 of the edge list of every family
against values recorded before the draws were inlined.
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


def gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple digraph with exactly n vertices and m arcs.

    Sampling is a partial Fisher-Yates shuffle over the n*(n-1) possible
    arcs, so every m-subset is equally likely and the draw sequence (hence
    the output) depends only on (n, m, seed).  Per-source adjacency order
    is the order in which arcs were drawn.  Average degree is exactly m/n.

    One loop serves every density: the shuffled pair space is never
    materialized, only the entries displaced so far, in a dict.  Draw i is
    ``randrange(i, n*(n-1))``'s, taken as ``i + r`` with r by the
    module's rejection rule, and pair k is row ``k // (n-1)`` of the
    ascending non-self targets.
    """
    _require_positive("n", n)
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    limit = n * (n - 1)
    if m > limit:
        raise TooManyArcs(n, m, limit)
    getrandbits = random.Random(seed).getrandbits
    lists: list[list[int]] = [[] for _ in range(n)]
    # position i is never sampled again, so the back-swap write to it is skipped
    moved: dict[int, int] = {}
    get = moved.get
    for i in range(m):
        w = limit - i
        b = w.bit_length()
        r = getrandbits(b)
        while r >= w:
            r = getrandbits(b)
        j = i + r
        u, v = divmod(get(j, j), n - 1)
        moved[j] = get(i, i)
        lists[u].append(v + (v >= u))
    return Graph(lists)


def complete(n: int) -> Graph:
    """All n*(n-1) ordered pairs, each adjacency list ascending."""
    _require_positive("n", n)
    return Graph([[v for v in range(n) if v != u] for u in range(n)])


def path(n: int) -> Graph:
    """The directed path 0 -> 1 -> ... -> n-1."""
    _require_positive("n", n)
    return Graph([*zip(range(1, n)), ()])


def star_out(n: int) -> Graph:
    """Center 0 with arcs to every leaf 1..n-1, ascending."""
    _require_positive("n", n)
    return Graph([list(range(1, n))] + [[] for _ in range(n - 1)])


def layered_dag(width: int, depth: int, seed: int = 0) -> Graph:
    """Layered DAG: width*depth vertices in `depth` layers, a full
    bipartite arc set between consecutive layers (m = width^2*(depth-1)).

    Diameter grows with depth while every layer offers width^2 arcs of
    parallel elimination work.  The seed shuffles each source's adjacency
    order only; the arc set itself is fixed by (width, depth).  Each
    source's list starts ascending and takes ``random.shuffle``'s swaps,
    written out here with the module's rejection rule: from the last slot
    i down to 1, swap with a slot drawn below i + 1.
    """
    _require_positive("width", width)
    _require_positive("depth", depth)
    getrandbits = random.Random(seed).getrandbits
    lists: list[list[int]] = []
    for layer in range(depth - 1):
        base = (layer + 1) * width
        for _ in range(width):
            targets = list(range(base, base + width))
            for i in range(width - 1, 0, -1):
                b = (i + 1).bit_length()
                j = getrandbits(b)
                while j > i:
                    j = getrandbits(b)
                targets[i], targets[j] = targets[j], targets[i]
            lists.append(targets)
    lists += [[] for _ in range(width)]
    return Graph(lists)
