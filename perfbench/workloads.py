"""The benchmark's workloads.  Every input is a function of the seed alone.

Each workload is one pass over a fixed list of (graph, kind) solves, all
starting from vertex 0.  The reasons for choosing each one are in ``why``
(copied into BENCHMARK.json) and, at more length, in README.md.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from arcelim import generators, graph
from arcelim.engine import SIMULATED, THREADED
from arcelim.graph import Graph
from arcelim.traverse import BFS, DFS


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single client solving one job at a time.

    ``verified`` solves run the way ``arcelim verify`` does: with the
    ``counters`` invariant monitor, write validation, and the sequential
    oracle plus field-by-field comparison inside the timed solve.
    """

    name: str
    why: str
    family: str
    params: dict = field(default_factory=dict)
    kinds: tuple[str, ...] = (DFS,)
    processors: int = 8
    backend: str = SIMULATED
    verified: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gnm-large-dfs",
            "ROADMAP baseline graph gnm(20000, 400000): per-arc work in ElimGraph.build "
            "and the elimination bodies dominates, and bytes per arc matter",
            "gnm", {"n": 20000, "m": 400000}, (DFS,), 8),
        Workload(
            "path-deep-bfs",
            "path(100000): one arc per block and one vertex per level, so per-block "
            "dispatch, per-visit driver steps and parsing dominate; counted speedup is 1",
            "path", {"n": 100000}, (BFS,), 8),
        Workload(
            "layered-threaded-bfs",
            "layered_dag(64, 64) on the threaded backend at p=2: about 8,100 barrier "
            "episodes over 64-arc blocks, so dispatch and barrier wait dominate",
            "layered_dag", {"width": 64, "depth": 64}, (BFS,), 2, THREADED),
        Workload(
            "gnm-small-verified",
            "150 small gnm graphs, dfs and bfs at p=3 with monitor, write validation "
            "and oracle in the solve: the verify path, where fixed per-solve cost dominates",
            "gnm-batch", {"count": 150, "sizes": (16, 64, 256), "max_degree": 8},
            (DFS, BFS), 3, verified=True),
    )
}


def generate(w: Workload, seed: int) -> list[Graph]:
    """The workload's input graphs for ``seed``.

    Generators are looked up on their module at call time so that a
    tracer installed around this call sees them.
    """
    p = w.params
    if w.family == "gnm":
        return [generators.gnm(p["n"], p["m"], seed)]
    if w.family == "path":
        return [generators.path(p["n"])]
    if w.family == "layered_dag":
        return [generators.layered_dag(p["width"], p["depth"], seed)]
    # n cycles over the sizes; m runs evenly from n to max_degree * n within
    # each size, so the batch's total work barely depends on the seed while
    # the arcs themselves come from it
    rng = random.Random(seed)
    sizes, count = p["sizes"], p["count"]
    per_size = -(-count // len(sizes))
    graphs = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        step = i // len(sizes)
        m = n + (p["max_degree"] - 1) * n * step // max(per_size - 1, 1)
        graphs.append(generators.gnm(n, m, rng.getrandbits(32)))
    return graphs


def setup(w: Workload, seed: int) -> tuple[list[Graph], list[str]]:
    """What a user does before solving: generate the inputs, write them as
    edge lists, and parse them back.  Returns the parsed graphs and any
    round-trip disagreement."""
    parsed, problems = [], []
    for g in generate(w, seed):
        back = graph.parse_edge_list(graph.serialize_edge_list(g))
        if back != g:
            problems.append(f"edge-list round trip changed {g!r}")
        parsed.append(back)
    return parsed, problems
