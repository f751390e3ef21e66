"""The benchmark's own tests: metric names and units, the derived cost
ladder against real engine reports, the gate, the tracer, and the CLI.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bench
import tracer as tracer_mod
from arcelim import generators
from arcelim.engine import SIMULATED, THREADED
from arcelim.traverse import BFS, DFS
from reference import barrier_episodes, reference
from solve import indegrees, model_time, oracle_run, problems, solve
from tracer import Tracer
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "gnm-large-dfs": {"n": 50, "m": 400},
    "path-deep-bfs": {"n": 50},
    "layered-threaded-bfs": {"width": 4, "depth": 4},
    "gnm-small-verified": {"count": 6, "sizes": (4, 8), "max_degree": 3},
}


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_pins_metric_names_and_units(name, trace):
    w = replace(WORKLOADS[name], params=TINY[name])
    result, details = bench.run_workload(w, seed=5, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert details["missing_hooks"] == []
    for metric, value in result["metrics"].items():
        assert value["value"] is not None, metric
        if not trace:
            assert value["value"] > 0, metric
    json.dumps(result)


def test_same_seed_same_inputs_and_counts():
    w = replace(WORKLOADS["gnm-small-verified"], params=TINY["gnm-small-verified"])
    assert generate(w, 3) == generate(w, 3)
    first, _ = bench.run_workload(w, seed=3, seconds=0, trace=False)
    again, _ = bench.run_workload(w, seed=3, seconds=0, trace=False)
    for name in bench.COUNTED + ("model_speedup",):
        assert first["metrics"][name] == again["metrics"][name]


GRAPHS = [generators.gnm(40, 200, 7), generators.layered_dag(4, 5, 2),
          generators.path(30), generators.sample9()]


@pytest.mark.parametrize("backend", [SIMULATED, THREADED])
@pytest.mark.parametrize("kind", [DFS, BFS])
@pytest.mark.parametrize("g", GRAPHS, ids=repr)
def test_derived_ladder_equals_real_reports(g, kind, backend):
    # one recorded run's block sizes give the counted time at every p
    tr = Tracer()
    with tr:
        recorded = solve(g, kind, 3, backend, False)
    blocks = tr.block_sizes()
    assert len(blocks) == recorded.total.sync_steps
    for p in (1, 2, 8):
        real = solve(g, kind, p, backend, False).total
        assert model_time(blocks, real.seq_steps, p) == real.time_steps
        assert real.seq_steps == recorded.total.seq_steps


@pytest.mark.parametrize("kind", [DFS, BFS])
@pytest.mark.parametrize("g", GRAPHS, ids=repr)
def test_reference_visits_in_the_oracles_order(g, kind):
    assert reference(g.out_lists, kind == BFS) == list(oracle_run(g, kind).traversal)


def test_barrier_episodes_ends_its_threads():
    import threading

    before = threading.active_count()
    barrier_episodes(2, 50)
    assert threading.active_count() == before


def test_gate_accepts_a_correct_solve_and_flags_broken_ones():
    g = generators.gnm(30, 120, 4)
    want = oracle_run(g, DFS)
    indeg = indegrees(g)
    tr = Tracer()
    with tr:
        good = solve(g, DFS, 2, SIMULATED, True)
    assert problems(g, indeg, good, want, 2, tr.block_sizes()) == []
    wrong_blocks = problems(g, indeg, good, want, 2, [k + 1 for k in tr.block_sizes()])
    assert wrong_blocks and "derived time_steps" in wrong_blocks[0]
    other = oracle_run(g, BFS)
    assert any("oracle mismatch" in p for p in problems(g, indeg, good, other, 2))
    bad_cost = replace(good, built=replace(good.built, sync_steps=good.built.sync_steps + 1))
    assert any("build sync_steps" in p for p in problems(g, indeg, bad_cost, want, 2))


def test_tracer_restores_callables_and_reports_missing_hooks(monkeypatch):
    from arcelim import elim, traverse

    before = (vars(elim.ElimGraph)["build"], traverse.dfs)
    hooks = dict(tracer_mod.HOOKS, build=(("arcelim.elim", "ElimGraph", "gone"),))
    monkeypatch.setattr(tracer_mod, "HOOKS", hooks)
    tr = Tracer()
    with tr:
        assert traverse.dfs is not before[1]
        solve(generators.sample9(), DFS, 2, SIMULATED, False)
    assert (vars(elim.ElimGraph)["build"], traverse.dfs) == before
    assert tr.missing == {"build"}
    assert tr.seconds("build") is None and tr.block_sizes("build") is None
    assert tr.seconds("traverse") > 0 and len(tr.block_sizes("eliminate")) == 9


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "--workload", "path-deep-bfs", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_cli_rejects_an_unknown_workload():
    out = _run_cli(ROOT, "--workload", "nope", "--seconds", "0")
    assert out.returncode == 2
    assert "gnm-large-dfs" in out.stderr
