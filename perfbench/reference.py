"""The benchmark's yardstick: a fixed pure-Python traversal of the same graph.

The machine the benchmark was written on is a shared host whose speed
drifts by up to 1.7x over a minute, so a wall time alone says more about
the neighbours than about the program.  Timing this reference right after
each pass of solves and reporting the ratio cancels that drift.  It is the
benchmark's own code and imports nothing from ``arcelim``, so no change to
the package can move it: a ratio that moves is the package's doing.

The work mixes what a solve does: per-arc list appends (the in-lists an
elimination build needs) and a textbook DFS or BFS over the out-lists.
"""
from __future__ import annotations

import threading
from collections import deque


def reference(out_lists, bfs: bool) -> list:
    """Visit order from vertex 0: ``order[v]`` is v's visit number or None.

    Scans each adjacency list left to right, as ``seq_dfs`` / ``seq_bfs``
    do, so the order equals their ``traversal``.
    """
    n = len(out_lists)
    in_lists = [[] for _ in range(n)]
    for u, targets in enumerate(out_lists):
        for v in targets:
            in_lists[v].append(u)
    order = [None] * n
    order[0] = 0
    number = 1
    if bfs:
        queue = deque([0])
        while queue:
            for v in out_lists[queue.popleft()]:
                if order[v] is None:
                    order[v] = number
                    number += 1
                    queue.append(v)
    else:
        stack = [iter(out_lists[0])]
        while stack:
            for v in stack[-1]:
                if order[v] is None:
                    order[v] = number
                    number += 1
                    stack.append(iter(out_lists[v]))
                    break
            else:
                stack.pop()
    return order


def barrier_episodes(workers: int, episodes: int) -> None:
    """``episodes`` rounds of a driver and ``workers`` threads meeting at
    two barriers with nothing in between: the synchronization a threaded
    block costs on this machine, at this moment."""
    begin = threading.Barrier(workers + 1)
    end = threading.Barrier(workers + 1)

    def meet() -> None:
        for _ in range(episodes):
            begin.wait()
            end.wait()

    threads = [threading.Thread(target=meet) for _ in range(workers)]
    for t in threads:
        t.start()
    try:
        meet()
    finally:
        for t in threads:
            t.join()
