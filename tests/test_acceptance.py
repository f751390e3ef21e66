"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line.  Workload corpora shared by several criteria run once per session.

Criteria 3 and 4 sweep thousands of instrumented runs; criteria 5 and 6
assert properties collected during those same sweeps, so "every run" means
exactly that, not a separate smaller sample.
"""
import functools
import os
import random
import time

import pytest

from arcelim import (
    BFS,
    COUNTERS,
    DFS,
    ElimGraph,
    Graph,
    InvariantMonitor,
    PARANOID,
    SIMULATED,
    THREADED,
    bfs,
    compare_results,
    complete,
    dfs,
    gnm,
    layered_dag,
    path,
    sample9,
    seq_bfs,
    seq_dfs,
    solve,
)

SAMPLE_DFS_NUMBERS = {0: 0, 1: 1, 5: 2, 7: 3, 8: 4, 4: 5, 3: 6, 6: 7, 2: 8}
SAMPLE_DFS_TREE = {
    frozenset(e)
    for e in [(0, 1), (1, 5), (5, 7), (7, 8), (8, 4), (4, 3), (3, 6), (5, 2)]
}
SAMPLE_BFS_TREE = {
    frozenset(e)
    for e in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 7), (7, 8)]
}
SAMPLE_BFS_DISTANCES = [0, 1, 1, 1, 1, 2, 2, 3, 4]


def criterion(num, summary):
    """Print one PASS/FAIL line per criterion, whatever pytest reports."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d}: FAIL - {summary}")
                raise
            print(f"\ncriterion {num:2d}: PASS - {summary}")

        return wrapper

    return deco


def run_instrumented(g, s, kind, p, level):
    """One full pipeline: build + traverse + oracle comparison + bookkeeping
    needed by criteria 3-6."""
    monitor = InvariantMonitor(level)
    solved = solve(g, kind, s, processors=p, monitor=monitor)
    result, build = solved.result, solved.build
    return result, {
        "n": g.num_vertices,
        "visited": result.visited_count,
        "sync_build": build.sync_steps,
        "sync_traverse": solved.engine.report().sync_steps - build.sync_steps,
        "visit_checks": monitor.stats["visit_checks"],
        "eliminations": monitor.stats["eliminations"],
    }


def mask_graph(n, pairs, mask):
    lists = [[] for _ in range(n)]
    for bit, (u, v) in enumerate(pairs):
        if mask >> bit & 1:
            lists[u].append(v)
    return Graph(lists)


@pytest.fixture(scope="module")
def exhaustive_corpus():
    """Criterion 3 workload: every 3-vertex simple digraph (paranoid
    instrumentation) and 2048 distinct 4-vertex arc subsets (counter
    instrumentation), every start, both kinds, p in {1, 2, 3}."""
    t0 = time.perf_counter()
    mismatches = []
    stats = []
    runs = 0

    def sweep(n, masks, level):
        nonlocal runs
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in masks:
            g = mask_graph(n, pairs, mask)
            for s in range(n):
                for kind in (DFS, BFS):
                    want = (seq_dfs if kind == DFS else seq_bfs)(g, s, 0)
                    for p in (1, 2, 3):
                        got, record = run_instrumented(g, s, kind, p, level)
                        runs += 1
                        stats.append(record)
                        report = compare_results(got, want)
                        if not report.ok:
                            mismatches.append((n, mask, s, kind, p, report.mismatches[0]))

    sweep(3, range(64), PARANOID)
    masks4 = random.Random(20260819).sample(range(4096), 2048)
    sweep(4, masks4, COUNTERS)
    return {
        "mismatches": mismatches,
        "stats": stats,
        "runs": runs,
        "graphs": 64 + 2048,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def randomized_corpus():
    """Criterion 4 workload: 500 seeded gnm graphs, n in {16, 64, 256},
    m up to 8n, random starts, both kinds."""
    t0 = time.perf_counter()
    rng = random.Random(424242)
    mismatches = []
    stats = []
    graphs = 0
    for i in range(500):
        n = (16, 64, 256)[i % 3]
        m = rng.randrange(0, 8 * n + 1)
        g = gnm(n, m, rng.randrange(2**32))
        graphs += 1
        s = rng.randrange(n)
        p = rng.choice((1, 2, 4))
        for kind in (DFS, BFS):
            want = (seq_dfs if kind == DFS else seq_bfs)(g, s, 0)
            got, record = run_instrumented(g, s, kind, p, COUNTERS)
            stats.append(record)
            report = compare_results(got, want)
            if not report.ok:
                mismatches.append((n, m, s, kind, p, report.mismatches[0]))
    return {
        "mismatches": mismatches,
        "stats": stats,
        "graphs": graphs,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def sample_runs():
    """Criteria 1/2/9 workload: the bundled sample graph across processor
    counts and backends, paranoid-instrumented."""
    out = {}
    for kind in (DFS, BFS):
        for backend in (SIMULATED, THREADED):
            for p in (1, 2, 8):
                monitor = InvariantMonitor(PARANOID)
                solved = solve(sample9(), kind, processors=p, backend=backend, monitor=monitor)
                out[(kind, backend, p)] = {
                    "result": solved.result,
                    "bits": solved.result.serialize(),
                    "build": solved.build,
                    "trav": solved.engine.report() - solved.build,
                    "visit_checks": monitor.stats["visit_checks"],
                    "eliminations": monitor.stats["eliminations"],
                }
    return out


@criterion(1, "depth-first numbering and tree on the sample graph")
def test_criterion_01_sample_dfs(sample_runs):
    t0 = time.perf_counter()
    eg = ElimGraph.build(sample9())
    res = dfs(eg, 0)
    elapsed = time.perf_counter() - t0
    assert {v: t for v, t in enumerate(res.traversal)} == SAMPLE_DFS_NUMBERS
    tree = {frozenset((v, p)) for v, p in enumerate(res.parent) if p is not None}
    assert tree == SAMPLE_DFS_TREE
    for record in sample_runs.values():
        if record["result"].distance[0] is None:  # the depth-first rows
            got = {v: t for v, t in enumerate(record["result"].traversal)}
            assert got == SAMPLE_DFS_NUMBERS
    assert elapsed < 1.0


@criterion(2, "breadth-first numbering, distances, and tree on the sample graph")
def test_criterion_02_sample_bfs(sample_runs):
    t0 = time.perf_counter()
    eg = ElimGraph.build(sample9())
    res = bfs(eg, 0)
    elapsed = time.perf_counter() - t0
    assert list(res.traversal) == list(range(9))
    assert list(res.distance) == SAMPLE_BFS_DISTANCES
    tree = {frozenset((v, p)) for v, p in enumerate(res.parent) if p is not None}
    assert tree == SAMPLE_BFS_TREE
    for record in sample_runs.values():
        if record["result"].distance[0] is not None:
            assert list(record["result"].distance) == SAMPLE_BFS_DISTANCES
    assert elapsed < 1.0


@criterion(3, "exhaustive oracle equivalence on all 3-vertex and 2048 4-vertex digraphs")
def test_criterion_03_exhaustive_equivalence(exhaustive_corpus):
    assert exhaustive_corpus["graphs"] == 2112
    assert exhaustive_corpus["runs"] == 64 * 3 * 2 * 3 + 2048 * 4 * 2 * 3
    assert exhaustive_corpus["mismatches"] == []
    assert exhaustive_corpus["elapsed"] < 30.0


@criterion(4, "randomized oracle equivalence on 500 seeded gnm graphs")
def test_criterion_04_randomized_equivalence(randomized_corpus):
    assert randomized_corpus["graphs"] == 500
    assert randomized_corpus["mismatches"] == []
    assert randomized_corpus["elapsed"] < 60.0


@criterion(5, "instrumented runs: no live arc into a visited vertex, single elimination")
def test_criterion_05_invariant_instrumentation(
    exhaustive_corpus, randomized_corpus, sample_runs
):
    # Any violation raises InvariantViolation inside the corpora fixtures,
    # so reaching this point already means zero violations.  What remains
    # is evidence the monitors were live: one check per visit, and every
    # elimination accounted.  Eliminations only remove arcs, so a fresh
    # vertex checked clean at its visit stays clean afterwards; the
    # paranoid level (3-vertex corpus, sample runs) additionally re-walks
    # every live chain after every visit rather than relying on that.
    checked_visits = 0
    for record in exhaustive_corpus["stats"] + randomized_corpus["stats"]:
        assert record["visit_checks"] == record["visited"]
        checked_visits += record["visit_checks"]
    for record in sample_runs.values():
        assert record["visit_checks"] == 9
        assert record["eliminations"] == 24
    assert checked_visits > 100_000


@criterion(6, "build costs n + 1 synchronization steps, traversal costs one per visit")
def test_criterion_06_sync_step_counts(
    exhaustive_corpus, randomized_corpus, sample_runs
):
    for record in exhaustive_corpus["stats"] + randomized_corpus["stats"]:
        assert record["sync_traverse"] == record["visited"]
        assert record["sync_build"] == record["n"] + 1
    for record in sample_runs.values():
        assert record["trav"].sync_steps == 9
        assert record["build"].sync_steps == 10


@criterion(7, "traversal time within work/p + C*(visited+1) for one C <= 8 across families")
def test_criterion_07_cost_model_bound():
    t0 = time.perf_counter()
    cases = [("complete", complete(n)) for n in (16, 64, 128)]
    cases += [
        (f"gnm({n},{m})", gnm(n, m, seed))
        for n, m, seed in [
            (64, 1024, 11),
            (256, 4096, 12),
            (512, 8192, 13),
            (512, 512, 14),
            (512, 0, 15),
        ]
    ]
    cases += [
        (f"layered({w}x{d})", layered_dag(w, d, 16))
        for w, d in [(8, 8), (32, 6), (64, 4)]
    ]
    fitted = 0.0
    argmax = None
    for name, g in cases:
        for kind in (DFS, BFS):
            for p in (1, 2, 4, 8, 16):
                solved = solve(g, kind, processors=p)
                trav = solved.engine.report() - solved.build
                need = (trav.time_steps - trav.work / p) / (solved.result.visited_count + 1)
                if need > fitted:
                    fitted, argmax = need, (name, kind, p)
    elapsed = time.perf_counter() - t0
    print(f"\n  fitted C = {fitted:.3f} at {argmax}")
    assert fitted <= 8.0
    assert elapsed < 120.0


@criterion(8, "speedup dichotomy: near-linear on complete(64), flat on path(1000)")
def test_criterion_08_speedup_regimes():
    def total_time(g, kind, p):
        return solve(g, kind, processors=p).engine.report().time_steps

    dense = complete(64)  # m/n = 63, every p <= 16 is within the linear regime
    for kind in (DFS, BFS):
        t1 = total_time(dense, kind, 1)
        for p in (2, 4, 8, 16):
            speedup = t1 / total_time(dense, kind, p)
            assert speedup >= p / 2, (kind, p, speedup)
    sparse = path(1000)  # m/n ~ 1: no parallelism to exploit
    for kind in (DFS, BFS):
        t1 = total_time(sparse, kind, 1)
        for p in (2, 4, 8, 16):
            speedup = t1 / total_time(sparse, kind, p)
            assert speedup <= 1.3, (kind, p, speedup)


@criterion(9, "bit-identical results and agreeing counters across p and backends")
def test_criterion_09_determinism_and_backends(sample_runs):
    for kind in (DFS, BFS):
        reference = sample_runs[(kind, SIMULATED, 1)]
        for backend in (SIMULATED, THREADED):
            for p in (1, 2, 8):
                record = sample_runs[(kind, backend, p)]
                assert record["bits"] == reference["bits"]
                assert record["trav"].sync_steps == reference["trav"].sync_steps
                assert record["trav"].work == reference["trav"].work
                assert record["build"].sync_steps == reference["build"].sync_steps
                assert record["build"].work == reference["build"].work
        # same p, different backend: the full cost report agrees
        for p in (1, 2, 8):
            assert (
                sample_runs[(kind, SIMULATED, p)]["trav"]
                == sample_runs[(kind, THREADED, p)]["trav"]
            )


@pytest.mark.wallclock
@criterion(10, "wall-clock speedup at p=4 on a large gnm graph (informational)")
def test_criterion_10_wall_clock_speedup():
    # Needs real parallel hardware; the counted-step claims above are the
    # gating ones.  This one reports what the current machine delivers.
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 cores, found {cores}")
    n, m = 2001, 4_000_000  # densest gnm this side of 2000 vertices holds 3 998 000 arcs
    g = gnm(n, m, 1)
    for kind in (DFS, BFS):
        walls = {p: solve(g, kind, processors=p, backend=THREADED).wall_ns for p in (1, 4)}
        speedup = walls[1] / walls[4]
        print(f"\n  {kind}: wall speedup p=4 vs p=1 on gnm({n}, {m}) = {speedup:.2f}")
        if speedup <= 1.5:
            print("  below the 1.5 target on this machine (informational, non-gating)")
