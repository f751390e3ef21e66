import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcelim import MatchReport, cli, gnm, serialize_edge_list
from arcelim.cli import CSV_COLUMNS, main

SAMPLE_DFS_DUMP = (
    "0 0 - -\n"
    "1 1 0 -\n"
    "2 8 5 -\n"
    "3 6 4 -\n"
    "4 5 8 -\n"
    "5 2 1 -\n"
    "6 7 3 -\n"
    "7 3 5 -\n"
    "8 4 7 -\n"
)

SAMPLE_BFS_DUMP = (
    "0 0 - 0\n"
    "1 1 0 1\n"
    "2 2 0 1\n"
    "3 3 0 1\n"
    "4 4 0 1\n"
    "5 5 1 2\n"
    "6 6 2 2\n"
    "7 7 5 3\n"
    "8 8 7 4\n"
)

# run --trace's stderr on the sample graph: visit order, numbers, and the
# depth of each vertex in the search tree
SAMPLE_DFS_TRACE = (
    "visit 0 number=0 level=0\n"
    "visit 1 number=1 level=1\n"
    "visit 5 number=2 level=2\n"
    "visit 7 number=3 level=3\n"
    "visit 8 number=4 level=4\n"
    "visit 4 number=5 level=5\n"
    "visit 3 number=6 level=6\n"
    "visit 6 number=7 level=7\n"
    "visit 2 number=8 level=3\n"
)

SAMPLE_BFS_TRACE = (
    "visit 0 number=0 level=0\n"
    "visit 1 number=1 level=1\n"
    "visit 2 number=2 level=1\n"
    "visit 3 number=3 level=1\n"
    "visit 4 number=4 level=1\n"
    "visit 5 number=5 level=2\n"
    "visit 6 number=6 level=2\n"
    "visit 7 number=7 level=3\n"
    "visit 8 number=8 level=4\n"
)


@pytest.fixture()
def sample_file(tmp_path):
    target = tmp_path / "s9.txt"
    assert main(["gen", "--family", "sample9", "--out", str(target)]) == 0
    return str(target)


class TestGen:
    def test_path_golden(self, capsys):
        assert main(["gen", "--family", "path", "--n", "4"]) == 0
        assert capsys.readouterr().out == "4 3\n0 1\n1 2\n2 3\n"

    def test_gnm_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--family", "gnm", "--n", "100", "--m", "5000", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_complete_arc_count(self, capsys):
        assert main(["gen", "--family", "complete", "--n", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3 6"
        assert len(out) == 7

    def test_layered_needs_width_and_depth(self, capsys):
        assert main(["gen", "--family", "layered_dag", "--width", "3"]) == 2
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("family,given,message", [
        ("gnm", ["--n", "5"], "gnm needs --n and --m"),
        ("gnm", ["--m", "5"], "gnm needs --n and --m"),
        ("path", [], "path needs --n"),
        ("complete", ["--m", "3"], "complete needs --n"),
        ("star_out", ["--width", "3"], "star_out needs --n"),
    ])
    def test_family_needs_its_parameters(self, capsys, family, given, message):
        assert main(["gen", "--family", family] + given) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["gen", "--family", "path", "--n", "4"],
        ["bench", "--family", "path", "--sizes", "6", "--procs", "1"],
    ], ids=["gen", "bench"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, command):
        target = tmp_path / "missing" / "out.txt"
        assert main(command + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(target) in captured.err

    def test_gnm_too_many_arcs_is_input_error(self, capsys):
        assert main(["gen", "--family", "gnm", "--n", "3", "--m", "99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gnm_negative_m_is_input_error(self, capsys):
        assert main(["gen", "--family", "gnm", "--n", "3", "--m", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m must be at least 0, got -1\n"


class TestRun:
    def test_dfs_sample_dump_and_costs(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file]) == 0
        out = capsys.readouterr().out
        dump, costs = out.split("\n\n")
        assert dump + "\n" == SAMPLE_DFS_DUMP
        assert costs == (
            "time_steps=83\nsync_steps=19\nwork=57\nseq_steps=26\n"
            "sync_steps_build=10\nsync_steps_traverse=9\n"
        )

    def test_bfs_sample_dump(self, sample_file, capsys):
        assert main(["run", "bfs", sample_file]) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n")[0] + "\n" == SAMPLE_BFS_DUMP

    def test_p_invariance_of_dump(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file, "--procs", "1"]) == 0
        out1 = capsys.readouterr().out
        assert main(["run", "dfs", sample_file, "--procs", "8"]) == 0
        out8 = capsys.readouterr().out
        assert out1.split("\n\n")[0] == out8.split("\n\n")[0]
        t1 = int(out1.split("time_steps=")[1].split("\n")[0])
        t8 = int(out8.split("time_steps=")[1].split("\n")[0])
        assert t8 < t1

    def test_threaded_mode(self, sample_file, capsys):
        assert main(
            ["run", "bfs", sample_file, "--procs", "4", "--mode", "threaded"]
        ) == 0
        assert capsys.readouterr().out.split("\n\n")[0] + "\n" == SAMPLE_BFS_DUMP

    def test_trace_goes_to_stderr(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file, "--trace"]) == 0
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 9
        assert lines[0] == "visit 0 number=0 level=0"
        assert "visit" not in captured.out

    @pytest.mark.parametrize("kind, want", [("dfs", SAMPLE_DFS_TRACE), ("bfs", SAMPLE_BFS_TRACE)])
    def test_full_trace(self, sample_file, capsys, kind, want):
        assert main(["run", kind, sample_file, "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.err == want
        assert captured.out.split("\n\n")[0] + "\n" == {"dfs": SAMPLE_DFS_DUMP,
                                                        "bfs": SAMPLE_BFS_DUMP}[kind]

    def test_start_offset(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file, "--start", "6", "--a0", "5"]) == 0
        dump = capsys.readouterr().out.split("\n\n")[0]
        assert dump.splitlines()[6] == "6 5 - -"

    @pytest.mark.parametrize("a0", [-5, 4294967296])
    def test_any_first_number(self, sample_file, capsys, a0):
        """Numbers are stored less the first, so a negative first number
        and one beyond 32 bits print as they always have."""
        assert main(["run", "dfs", sample_file, "--a0", str(a0), "--trace"]) == 0
        captured = capsys.readouterr()
        dump = captured.out.split("\n\n")[0] + "\n"
        rows = (line.split() for line in SAMPLE_DFS_DUMP.splitlines())
        assert dump == "".join(f"{v} {int(t) + a0} {p} {d}\n" for v, t, p, d in rows)
        assert captured.err.splitlines()[0] == f"visit 0 number={a0} level=0"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["run", "dfs", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_start_is_input_error(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file, "--start", "99"]) == 2

    def test_corrupt_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 1\n1 0\n")
        assert main(["run", "bfs", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_target_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\n1 7\n")
        assert main(["run", "dfs", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: arc 1->7 (slot 0) targets a vertex outside 0..2\n"
        )

    def test_duplicate_arc_names_the_repeating_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 3\n0 1\n# comment\n\n1 2\n0 1\n")
        assert main(["run", "dfs", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 6: duplicate arc 0->1\n"

    def test_empty_graph_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 0\n")
        assert main(["run", "dfs", str(empty)]) == 2
        assert capsys.readouterr().err == (
            "error: start vertex 0: the graph has no vertices\n"
        )


class TestVerify:
    def test_empty_graph_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 0\n")
        assert main(["verify", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: start vertex 0: the graph has no vertices\n"
        assert captured.out == ""

    def test_sample_all_starts_both_kinds(self, sample_file, capsys):
        assert main(["verify", sample_file]) == 0
        assert "OK: 18 runs" in capsys.readouterr().out

    def test_subset_of_starts_and_kinds(self, sample_file, capsys):
        assert main(
            ["verify", sample_file, "--kinds", "dfs", "--starts", "0,3"]
        ) == 0
        assert "OK: 2 runs" in capsys.readouterr().out

    def test_gnm_seeds(self, tmp_path, capsys):
        for seed in (1, 2, 3):
            target = tmp_path / f"g{seed}.txt"
            main(
                ["gen", "--family", "gnm", "--n", "64", "--m", "1024",
                 "--seed", str(seed), "--out", str(target)]
            )
            assert main(["verify", str(target), "--starts", "0,7,33"]) == 0

    def test_mismatch_reported_with_vertex(self, sample_file, capsys, monkeypatch):
        """Negative control: force one disagreement through the report path."""
        forged = MatchReport(("traversal[4]: driver=1 oracle=2",))
        monkeypatch.setattr(
            "arcelim.cli.verify_against_oracle", lambda *a, **k: forged
        )
        assert main(["verify", sample_file, "--starts", "0", "--kinds", "dfs"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH kind=dfs start=0: traversal[4]" in out

    def test_bad_starts_is_input_error(self, sample_file, capsys):
        assert main(["verify", sample_file, "--starts", "0,x"]) == 2

    def test_bad_start_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        """Every start is checked against n before the first solve, with the
        error a lone bad start gives."""
        target = tmp_path / "path4000.txt"
        assert main(["gen", "--family", "path", "--n", "4000", "--out", str(target)]) == 0
        calls = []
        monkeypatch.setattr(cli, "verify_against_oracle", lambda *a, **k: calls.append(a))
        errors = []
        for starts in ("0,1,4000", "4000"):
            assert main(["verify", str(target), "--starts", starts]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert calls == []
        assert errors == ["error: start vertex 4000 not in 0..3999\n"] * 2

    def test_flags_are_refused_before_the_graph_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        for flag, value, message in (
            ("--starts", "0,x", "--starts expects comma-separated integers, got '0,x'"),
            ("--kinds", "astar", "unknown traversal kind 'astar' (use dfs, bfs, or both)"),
        ):
            assert main(["verify", missing, flag, value]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestBench:
    def test_csv_shape_and_golden_row(self, capsys):
        assert main(
            ["bench", "--family", "complete", "--sizes", "8",
             "--procs", "1,2", "--kinds", "dfs"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1] == "complete,8,56,1,simulated,dfs,143,9,8,120,23,,1.000000"
        p2 = lines[2].split(",")
        assert p2[3] == "2"
        assert float(p2[-1]) > 1.0

    def test_deterministic_csv(self, capsys):
        args = [
            "bench", "--family", "gnm", "--sizes", "32:256",
            "--procs", "1,4", "--seed", "9",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_p1_identity_and_sync_counts(self, capsys):
        assert main(
            ["bench", "--family", "gnm", "--sizes", "256:4096",
             "--procs", "1", "--kinds", "bfs", "--seed", "3"]
        ) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        rec = dict(zip(CSV_COLUMNS, row))
        assert int(rec["time_steps"]) == int(rec["work"]) + int(rec["seq_steps"])
        assert rec["wall_nanos"] == ""

    def test_layered_sizes_and_multiple_tokens(self, capsys):
        assert main(
            ["bench", "--family", "layered_dag", "--sizes", "4x3,2x2",
             "--procs", "2", "--kinds", "dfs"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("layered_dag,12,32,2,")
        assert lines[2].startswith("layered_dag,4,4,2,")

    def test_speedup_has_baseline_even_without_p1_row(self, capsys):
        assert main(
            ["bench", "--family", "complete", "--sizes", "16",
             "--procs", "4", "--kinds", "dfs"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[-1]) > 1.0

    def test_one_run_per_size_kind_and_p(self, capsys, monkeypatch):
        """The model speedup comes from each row's own run: no extra p=1 run."""
        calls = []
        real = cli.solve

        def counted(g, kind, *rest):
            calls.append((g.num_vertices, kind))
            return real(g, kind, *rest)

        monkeypatch.setattr(cli, "solve", counted)
        assert main(["bench", "--family", "path", "--sizes", "8,12", "--procs", "4"]) == 0
        assert sorted(calls) == [(8, "bfs"), (8, "dfs"), (12, "bfs"), (12, "dfs")]

    @pytest.mark.parametrize("mode,runs", [("simulated", 1), ("threaded", 3)])
    def test_simulated_rows_share_one_run(self, capsys, monkeypatch, mode, runs):
        """Block sizes do not depend on p, so a simulated bench derives every
        p row from one run; a threaded row needs its own wall time."""
        calls = []
        real = cli.solve

        def counted(g, kind, start, a, processors, *rest):
            calls.append(processors)
            return real(g, kind, start, a, processors, *rest)

        monkeypatch.setattr(cli, "solve", counted)
        assert main(["bench", "--family", "path", "--sizes", "12", "--kinds", "dfs",
                     "--procs", "1,2,4", "--mode", mode]) == 0
        assert len(calls) == runs
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3

    def test_threaded_mode_reports_wall_nanos(self, capsys):
        assert main(
            ["bench", "--family", "path", "--sizes", "50",
             "--procs", "2", "--kinds", "bfs", "--mode", "threaded"]
        ) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        rec = dict(zip(CSV_COLUMNS, row))
        assert rec["mode"] == "threaded"
        assert int(rec["wall_nanos"]) > 0

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        args = ["bench", "--family", "layered_dag", "--sizes", "4x3", "--procs", "1,2"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "bench.csv"
        assert main(args + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode()

    def test_gnm_negative_m_is_input_error(self, capsys):
        assert main(["bench", "--family", "gnm", "--sizes", "3:-1", "--procs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m must be at least 0, got -1\n"

    def test_bad_size_token_is_input_error(self, capsys):
        assert main(
            ["bench", "--family", "gnm", "--sizes", "32", "--procs", "1"]
        ) == 2
        assert "n:m" in capsys.readouterr().err

    def test_bad_size_token_is_refused_before_any_graph(self, capsys, monkeypatch):
        """Every --sizes token is parsed before the first graph is made."""
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append("solve"))
        monkeypatch.setattr(cli, "_make_graph", lambda *a: calls.append("graph"))
        assert main(["bench", "--family", "gnm", "--sizes", "4000:80000,abc",
                     "--procs", "1,2"]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sizes expects n:m for gnm, got 'abc'\n"

    @pytest.mark.parametrize("family,token,form", [
        ("path", "abc", "n"),
        ("gnm", "3:4:5", "n:m"),
        ("layered_dag", "4xq", "WIDTHxDEPTH"),
    ])
    def test_non_integer_size_token_names_the_form(self, capsys, family, token, form):
        assert main(["bench", "--family", family, "--sizes", token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --sizes expects {form} for {family}, got {token!r}\n"


class TestParsing:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out

    def test_unknown_kind_rejected(self, sample_file, capsys):
        assert main(["run", "astar", sample_file]) == 2

    def test_unknown_kind_in_verify_list(self, sample_file, capsys):
        assert main(["verify", sample_file, "--kinds", "dfs,astar"]) == 2

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_empty_kinds_list_rejected(self, sample_file, capsys, command):
        args = {"verify": ["verify", sample_file],
                "bench": ["bench", "--family", "path", "--sizes", "6"]}[command]
        assert main(args + ["--kinds", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --kinds must name at least one kind\n"

    @pytest.mark.parametrize("command, flag, message", [
        ("bench", "--procs", "--procs must name at least one value"),
        ("verify", "--starts", "--starts must name at least one value"),
        ("bench", "--sizes", "--sizes must name at least one size"),
    ])
    def test_empty_value_list_rejected(self, sample_file, capsys, command, flag, message):
        args = {"verify": ["verify", sample_file],
                "bench": ["bench", "--family", "path", "--sizes", "6"]}[command]
        assert main(args + [flag, ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestProcessorCount:
    """A processor count below 1 is refused with ParEngine's own text
    before any graph is read or made."""

    @pytest.mark.parametrize("args", [
        ["run", "dfs", "missing.el", "--procs", "0"],
        ["verify", "missing.el", "--procs", "0"],
        ["bench", "--family", "gnm", "--sizes", "4000:80000", "--procs", "0,2"],
        ["bench", "--family", "path", "--sizes", "6", "--procs", "2,0"],
    ], ids=["run", "verify", "bench-first", "bench-later"])
    def test_refused_before_any_graph(self, capsys, monkeypatch, args):
        calls = []
        monkeypatch.setattr(cli, "_read_graph", lambda *a: calls.append("read"))
        monkeypatch.setattr(cli, "_make_graph", lambda *a: calls.append("graph"))
        monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append("solve"))
        assert main(args) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: processors must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_wins_over_an_unreadable_file(self, tmp_path, capsys, command):
        args = ["run", "dfs"] if command == "run" else ["verify"]
        assert main(args + [str(tmp_path / "missing.el"), "--procs", "-1"]) == 2
        assert capsys.readouterr().err == "error: processors must be >= 1, got -1\n"


class TestOutOfMemory:
    def test_memory_error_exits_3_with_one_line(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(cli, "_read_graph", exhausted)
        assert main(["run", "dfs", "any.txt"]) == cli.OUT_OF_MEMORY == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


class TestBrokenPipe:
    """A reader that closes standard output early ends a command quietly
    with BROKEN_PIPE, whether the closed pipe shows at a write (run's
    large dump) or only at the final flush (gen's and bench's short
    output)."""

    MAIN = "import sys; from arcelim.cli import main; sys.exit(main(sys.argv[1:]))"

    @pytest.mark.parametrize("command", ["gen", "run", "bench"])
    def test_closed_stdout_exits_quietly(self, tmp_path, command):
        graph = tmp_path / "g.txt"
        graph.write_text(serialize_edge_list(gnm(2000, 8000, 1)))
        args = {"gen": ["gen", "--family", "path", "--n", "3"],
                "run": ["run", "bfs", str(graph)],
                "bench": ["bench", "--family", "path", "--sizes", "6"]}[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails
        try:
            proc = subprocess.run([sys.executable, "-c", self.MAIN, *args], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.stderr == b""
        assert proc.returncode == cli.BROKEN_PIPE == 141
