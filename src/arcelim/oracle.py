"""Sequential textbook DFS and BFS, used as ground truth.

These run on the immutable Graph alone.  They never touch ElimGraph, the
in-tables, or the live-arc links, so agreement with the parallel drivers
is evidence, not circularity.  Numbering follows the same conventions as
the parallel drivers: the start vertex gets ``a`` and the k-th vertex
visited after it gets ``a + k``.  Both write the result cells of
``arcelim.result``; the visited mark each scanned arc tests is a list of
bools, because a list read is the interpreter's fastest and an array read
makes an int object.  The depth-first stack holds one iterator per open
vertex and nothing else; the vertex a frame belongs to is read back from
``parent``, which the search fills anyway.
"""
from __future__ import annotations

from array import array
from collections import deque

from .errors import InvalidStart
from .graph import ID, Graph
from .result import ABSENT, TraversalResult


def seq_dfs(g: Graph, s: int, a: int = 0) -> TraversalResult:
    """Depth-first search scanning each adjacency list left to right.

    Stack-simulated recursion: descend into the first unvisited target,
    backtrack when a list is exhausted.  Numbers are assigned on first
    visit.

    A frame is the iterator over its vertex's out-list, positioned after
    the arc it descended through, so a resumed frame goes on from there.
    ``u`` names the vertex of the top frame; a pop steps it to
    ``parent[u]``, the vertex of the frame below.  This is the frame
    layout of the benchmark's yardstick (perfbench/reference.py), which
    needs no vertex because it records no parents.  Keeping the vertex in
    the frame as a (vertex, iterator) tuple would allocate a tuple per
    visit and hold about 50 B more per open vertex.
    """
    n = g.num_vertices
    if not 0 <= s < n:
        raise InvalidStart(s, n)
    traversal = array(ID, [ABSENT]) * n
    parent = array(ID, [ABSENT]) * n
    seen = [False] * n
    seen[s] = True
    traversal[s] = 0
    k = 1  # visits so far: the next number less a
    u = s  # the vertex whose frame is on top
    stack = [iter(g.out_lists[s])]
    while stack:
        for v in stack[-1]:
            if not seen[v]:
                seen[v] = True
                traversal[v] = k
                k += 1
                parent[v] = u
                u = v
                stack.append(iter(g.out_lists[v]))
                break
        else:
            stack.pop()
            u = parent[u]
    return TraversalResult.collect(traversal, parent, array(ID, [ABSENT]) * n, a + k, k)


def seq_bfs(g: Graph, s: int, a: int = 0) -> TraversalResult:
    """Queue-based breadth-first search with left-to-right arc scanning.

    Each scanned arc tests a visited mark; parents and distances record
    the first discovery.
    """
    n = g.num_vertices
    if not 0 <= s < n:
        raise InvalidStart(s, n)
    traversal = array(ID, [ABSENT]) * n
    parent = array(ID, [ABSENT]) * n
    distance = array(ID, [ABSENT]) * n
    seen = [False] * n
    seen[s] = True
    traversal[s] = 0
    k = 1  # visits so far: the next number less a
    distance[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for v in g.out_lists[u]:
            if not seen[v]:
                seen[v] = True
                traversal[v] = k
                k += 1
                parent[v] = u
                distance[v] = distance[u] + 1
                q.append(v)
    return TraversalResult.collect(traversal, parent, distance, a + k, k)
