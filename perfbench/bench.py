"""The measured run: set-ups, gate, memory pass and timed segments.

Importing this module imports ``arcelim``; ``run.py`` puts the checkout's
``src/`` on the path first.
"""
from __future__ import annotations

import gc
import statistics
import tracemalloc
from contextlib import nullcontext
from time import perf_counter

from arcelim.elim import ElimGraph
from arcelim.engine import THREADED, ParEngine
from arcelim.instrument import COUNTERS, InvariantMonitor
from arcelim.traverse import BFS

from reference import barrier_episodes, reference

from solve import Solved, indegrees, model_time, oracle_run, problems, solve
from tracer import Tracer
from workloads import Workload, setup

SEGMENTS = 3  # timed segments per run, each preceded by a set-up
MEMORY_JOBS = 30
LADDER = (1, 2, 4, 8, 16)
COUNTED = ("time_steps", "sync_steps", "work", "seq_steps")

# name -> unit; BENCHMARK.json lists the same names with their direction
END_TO_END = {
    "setup_s": "s",
    "solve_vs_ref": "ratio",
    "peak_bytes_per_arc": "B/arc",
    "time_steps": "steps",
    "sync_steps": "steps",
    "work": "steps",
    "seq_steps": "steps",
    "model_speedup": "ratio",
}
PER_LAYER = {
    "generators.gen_s": "s",
    "graph.parse_s": "s",
    "graph.parse_lines_per_s": "lines/s",
    "elim.build_s": "s",
    "elim.build_blocks": "count",
    "elim.build_mean_block": "count",
    "elim.eliminate_s": "s",
    "elim.eliminations": "count",
    "elim.state_bytes_per_arc": "B/arc",
    "engine.blocks": "count",
    "engine.mean_block": "count",
    "engine.empty_block_share": "ratio",
    "engine.par_for_s": "s",
    "engine.body_s": "s",
    "engine.overhead_s": "s",
    **{f"engine.model_time_p{p}": "steps" for p in LADDER},
    "traverse.run_s": "s",
    "traverse.self_s": "s",
    "traverse.visits": "count",
    "traverse.seq_ticks": "count",
    "result.collect_s": "s",
    "oracle.run_s": "s",
    "oracle.gap": "ratio",
    "instrument.on_eliminate_s": "s",
    "instrument.after_visit_s": "s",
    "instrument.finish_s": "s",
    "instrument.checks": "count",
    "instrument.overhead_share": "ratio",
    "trace.overhead_share": "ratio",
}


def _median(values):
    return statistics.median(values) if values else None


def _ratio(a, b):
    return None if a is None or b is None or b == 0 else a / b


def _installed(tracer):
    return tracer if tracer is not None else nullcontext()


class Run:
    """One run over one workload and seed.

    Every phase counts the operations it attempts and records each failure
    (a raised exception, an oracle mismatch or a broken cost identity)
    instead of stopping.
    """

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []
        self.oracle_times: list[float] = []
        self.arcs = 0  # arcs solved in correct untraced timed solves
        self.ratios: list[float] = []  # per untraced pass: solve ÷ yardstick
        self.yardstick_times: list[float] = []  # per untraced pass
        self.graphs = None

    def _fail(self, where: str, exc: BaseException | str) -> None:
        if isinstance(exc, BaseException):
            exc = f"{type(exc).__name__}: {exc}"
        self.failures.append(f"{where}: {exc}")

    def time_setup(self, tracer: Tracer | None = None) -> list:
        """One timed set-up; returns the parsed graphs."""
        gc.collect()
        self.attempted += 1
        with _installed(tracer):
            t0 = perf_counter()
            graphs, bad = setup(self.w, self.seed)
            self.setup_times.append(perf_counter() - t0)
        if bad:
            self._fail("setup", bad[0])
        elif self.graphs is not None and graphs != self.graphs:
            self._fail("setup", "the same seed gave different inputs")
        return graphs

    def prepare(self, graphs: list) -> None:
        """Fix the jobs and run the oracle once per job for the reference
        results."""
        self.graphs = graphs
        self.indeg = [indegrees(g) for g in graphs]
        self.jobs = [(i, kind) for i in range(len(graphs)) for kind in self.w.kinds]
        self.wants = []
        for i, kind in self.jobs:
            t0 = perf_counter()
            want = oracle_run(graphs[i], kind)
            self.oracle_times.append(perf_counter() - t0)
            self.wants.append(want)
            self.attempted += 1
            if reference(graphs[i].out_lists, kind == BFS) != list(want.traversal):
                self._fail(f"reference {kind} graph {i}", "order differs from the oracle's")

    def _solve(self, job_no: int, processors: int | None = None,
               tracer: Tracer | None = None) -> Solved:
        w = self.w
        i, kind = self.jobs[job_no]
        with _installed(tracer):
            return solve(self.graphs[i], kind, processors or w.processors,
                         w.backend, w.verified)

    def _attempt(self, where: str, job_no: int, **kwargs) -> Solved | None:
        """An untimed solve, counted; None if it raised."""
        self.attempted += 1
        try:
            return self._solve(job_no, **kwargs)
        except Exception as exc:  # a raising solve is a counted failure
            self._fail(where, exc)
            return None

    def _check(self, job_no: int, s: Solved, processors: int, blocks=None) -> list[str]:
        i, _ = self.jobs[job_no]
        return problems(self.graphs[i], self.indeg[i], s, self.wants[job_no],
                        processors, blocks)

    def gate(self, tracer: Tracer) -> dict:
        """One pass at the workload's p under ``tracer``, whose block sizes
        must reproduce the counted time at p and at 1, and one pass at
        p = 1 that must agree with it.  Returns the p pass's counted costs
        and driver counts, summed over its solves.

        Solves are not kept: a monitored one holds its whole search
        structure, and a larger heap makes every later collection slower.
        """
        p = self.w.processors
        sums = dict.fromkeys(COUNTED + ("visits", "seq_ticks", "checks"), 0)
        for job_no, (i, kind) in enumerate(self.jobs):
            where = f"gate {kind} graph {i}"
            start = len(tracer.blocks)
            s = self._attempt(where, job_no, tracer=tracer)
            one = self._attempt(f"{where} p=1", job_no, processors=1)
            if s is None or one is None:
                continue
            for name in COUNTED:
                sums[name] += getattr(s.total, name)
            sums["visits"] += s.result.visited_count
            sums["seq_ticks"] += (s.total - s.built).seq_steps
            if s.monitor is not None:
                # the monitor's public check counters; None once they are gone
                stats = getattr(s.monitor, "stats", None)
                if stats is None or sums["checks"] is None:
                    sums["checks"] = None
                else:
                    sums["checks"] += sum(stats.values())
            blocks = tracer.block_sizes()
            blocks = None if blocks is None else blocks[start:]
            found = self._check(job_no, s, p, blocks)
            if found:
                self._fail(f"{where} p={p}", found[0])
            found = self._check(job_no, one, 1, blocks)
            if one.result != s.result:
                found.append("result differs from the p-processor run")
            for name in ("sync_steps", "work", "seq_steps"):
                if getattr(one.total, name) != getattr(s.total, name):
                    found.append(f"{name} differs from the p-processor run")
            if found:
                self._fail(f"{where} p=1", found[0])
        return sums

    def build_memory(self) -> list[float]:
        """Untimed, per graph under tracemalloc: the bytes per arc that
        ``ElimGraph.build`` leaves allocated."""
        w = self.w
        kept = []
        for i, g in enumerate(self.graphs):
            gc.collect()
            self.attempted += 1
            tracemalloc.start()
            try:
                monitor = InvariantMonitor(COUNTERS) if w.verified else None
                with ParEngine(w.processors, backend=w.backend,
                               validate_writes=w.verified) as engine:
                    before = tracemalloc.get_traced_memory()[0]
                    eg = ElimGraph.build(g, engine, monitor=monitor)
                    kept.append((tracemalloc.get_traced_memory()[0] - before)
                                / max(g.num_arcs, 1))
                    del eg
            except Exception as exc:
                self._fail(f"memory build graph {i}", exc)
            finally:
                tracemalloc.stop()
        return kept

    def peak_memory(self) -> list[float]:
        """Untimed, per job under tracemalloc: the peak bytes per arc
        allocated during its solve.  At most ``MEMORY_JOBS`` jobs, evenly
        spaced, because tracing every allocation slows a solve severalfold."""
        peaks = []
        stride = -(-len(self.jobs) // MEMORY_JOBS)
        for job_no in range(0, len(self.jobs), stride):
            i, kind = self.jobs[job_no]
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                s = self._attempt(f"memory {kind} graph {i}", job_no)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            if s is None:
                continue
            found = self._check(job_no, s, self.w.processors)
            if found:
                self._fail(f"memory {kind} graph {i}", found[0])
            peaks.append(peak / max(self.graphs[i].num_arcs, 1))
        return peaks

    def yardstick(self, job_no: int) -> None:
        """The fixed reference work for one job: the benchmark's own
        traversal of the graph, and on the threaded backend n barrier
        episodes of an empty pool of the same size."""
        i, kind = self.jobs[job_no]
        g = self.graphs[i]
        reference(g.out_lists, kind == BFS)
        if self.w.backend == THREADED:
            barrier_episodes(self.w.processors, g.num_vertices)

    def timed_pass(self, times: list[float], tracer: Tracer | None = None) -> None:
        """Solve every job once with garbage collected in between, and
        append each correct solve's seconds to ``times``.

        An untraced pass then times the yardstick of the jobs it solved
        correctly, repeated until it has run at least half as long as
        those solves, and records the solves' time ÷ one round of the
        yardstick.  The machine's speed drifts, but hardly within a pass.
        """
        solved, spent = [], 0.0
        for job_no, (i, kind) in enumerate(self.jobs):
            gc.collect()
            self.attempted += 1
            try:
                t0 = perf_counter()
                s = self._solve(job_no, tracer=tracer)
                dt = perf_counter() - t0
            except Exception as exc:
                self._fail(f"solve {kind} graph {i}", exc)
                continue
            found = self._check(job_no, s, self.w.processors)
            if found:
                self._fail(f"solve {kind} graph {i}", found[0])
                continue
            times.append(dt)
            if tracer is None:
                self.arcs += self.graphs[i].num_arcs
                solved.append(job_no)
                spent += dt
        if not solved:
            return
        gc.collect()
        rounds, t0 = 0, perf_counter()
        while True:
            for job_no in solved:
                self.yardstick(job_no)
            rounds += 1
            elapsed = perf_counter() - t0
            if elapsed >= spent / 2:
                break
        self.yardstick_times.append(elapsed / rounds)
        self.ratios.append(spent * rounds / elapsed)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result line and run details
    (sample counts, missing hooks, the first failures)."""
    run = Run(w, seed)
    setup_tracer = Tracer() if trace else None
    gate_tracer = Tracer()
    timed_tracer = Tracer() if trace else None
    plain: list[float] = []
    traced: list[float] = []

    def segment() -> None:
        # one of SEGMENTS timed segments: whole passes, at least one
        deadline = perf_counter() + seconds / SEGMENTS
        while True:
            run.timed_pass(plain)
            if timed_tracer is not None:
                run.timed_pass(traced, timed_tracer)
            if perf_counter() >= deadline:
                break

    # The machine's speed drifts over seconds, so set-ups and timed
    # segments alternate with the untimed phases to spread the samples
    # over the whole run.
    run.prepare(run.time_setup(setup_tracer))
    sums = run.gate(gate_tracer)
    segment()
    run.time_setup(setup_tracer)
    memory = run.build_memory() if trace else run.peak_memory()
    segment()
    run.time_setup(setup_tracer)
    segment()

    if trace:
        values = layer_metrics(run, sums, gate_tracer, setup_tracer, timed_tracer,
                               plain, traced, memory)
        units = PER_LAYER
    else:
        values = {
            "setup_s": _median(run.setup_times),
            "solve_vs_ref": _median(run.ratios),
            "peak_bytes_per_arc": _median(memory),
            **{name: sums[name] for name in COUNTED},
            "model_speedup": _ratio(sums["work"] + sums["seq_steps"], sums["time_steps"]),
        }
        units = END_TO_END
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    tracers = (setup_tracer, gate_tracer, timed_tracer)
    details = {
        "samples": {"setup": len(run.setup_times), "solve": len(plain),
                    "traced_solve": len(traced), "memory": len(memory),
                    "ratio": len(run.ratios)},
        # wall times as measured; they move with the machine's speed
        "wall": {"solve_s": _median(plain), "arcs_per_s": _ratio(run.arcs, sum(plain)),
                 "yardstick_s": _median(run.yardstick_times)},
        "missing_hooks": sorted(set().union(*(t.missing for t in tracers if t))),
        "failures": run.failures[:5],
    }
    return result, details


def layer_metrics(run: Run, sums: dict, gate_tracer: Tracer,
                  setup_tracer: Tracer, timed_tracer: Tracer,
                  plain: list[float], traced: list[float], kept: list[float]) -> dict:
    """Per-layer metrics.  Counts are per pass over the workload (from the
    gate pass), set-up times per set-up, solve-phase times per traced
    solve (from the timed segments)."""
    wt = timed_tracer

    def per_solve(x):
        return _ratio(x, len(traced))

    def per_setup(x):
        return _ratio(x, len(run.setup_times))

    def count(sizes):
        return None if sizes is None else len(sizes)

    def mean(sizes):
        return None if sizes is None else _ratio(sum(sizes), len(sizes))

    blocks = gate_tracer.block_sizes()
    build_blocks = gate_tracer.block_sizes("build")
    elim_blocks = gate_tracer.block_sizes("eliminate")
    parse_s = setup_tracer.seconds("parse")
    lines = sum(g.num_arcs + 1 for g in run.graphs) * len(run.setup_times)
    par_for_s = wt.seconds("par_for")
    body_s = None if par_for_s is None else wt.body_time
    hooks = [wt.seconds(name) for name in ("on_eliminate", "after_visit", "finish")]
    oracle_s = _ratio(sum(run.oracle_times), len(run.oracle_times))
    plain_s, traced_s = _median(plain), _median(traced)

    values = {
        "generators.gen_s": per_setup(setup_tracer.seconds("gen")),
        "graph.parse_s": per_setup(parse_s),
        "graph.parse_lines_per_s": _ratio(lines, parse_s),
        "elim.build_s": per_solve(wt.seconds("build")),
        "elim.build_blocks": count(build_blocks),
        "elim.build_mean_block": mean(build_blocks),
        "elim.eliminate_s": per_solve(wt.seconds("eliminate")),
        "elim.eliminations": None if elim_blocks is None else sum(elim_blocks),
        "elim.state_bytes_per_arc": _median(kept),
        "engine.blocks": count(blocks),
        "engine.mean_block": mean(blocks),
        "engine.empty_block_share": (None if blocks is None else
                                     _ratio(blocks.count(0), len(blocks))),
        "engine.par_for_s": per_solve(par_for_s),
        "engine.body_s": per_solve(body_s),
        "engine.overhead_s": per_solve(None if body_s is None else par_for_s - body_s),
        **{f"engine.model_time_p{p}": (None if blocks is None else
                                       model_time(blocks, sums["seq_steps"], p))
           for p in LADDER},
        "traverse.run_s": per_solve(wt.seconds("traverse")),
        "traverse.self_s": per_solve(wt.self_seconds("traverse")),
        "traverse.visits": sums["visits"],
        "traverse.seq_ticks": sums["seq_ticks"],
        "result.collect_s": per_solve(wt.seconds_under("traverse", "collect")),
        "oracle.run_s": oracle_s,
        "oracle.gap": _ratio(plain_s, oracle_s),
        "instrument.on_eliminate_s": per_solve(hooks[0]),
        "instrument.after_visit_s": per_solve(hooks[1]),
        "instrument.finish_s": per_solve(hooks[2]),
        "instrument.checks": sums["checks"],
        "instrument.overhead_share": (None if None in hooks else
                                      _ratio(sum(hooks), sum(traced))),
        "trace.overhead_share": (None if plain_s is None or traced_s is None
                                 else traced_s / plain_s - 1),
    }
    return values
