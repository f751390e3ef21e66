import pytest

from arcelim import MatchReport
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

    def test_gnm_too_many_arcs_is_input_error(self, capsys):
        assert main(["gen", "--family", "gnm", "--n", "3", "--m", "99"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_start_offset(self, sample_file, capsys):
        assert main(["run", "dfs", sample_file, "--start", "6", "--a0", "5"]) == 0
        dump = capsys.readouterr().out.split("\n\n")[0]
        assert dump.splitlines()[6] == "6 5 - -"

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
        forged = MatchReport(False, ("traversal[4]: driver=1 oracle=2",))
        monkeypatch.setattr(
            "arcelim.cli.verify_against_oracle", lambda *a, **k: forged
        )
        assert main(["verify", sample_file, "--starts", "0", "--kinds", "dfs"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH kind=dfs start=0: traversal[4]" in out

    def test_bad_starts_is_input_error(self, sample_file, capsys):
        assert main(["verify", sample_file, "--starts", "0,x"]) == 2


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

    def test_threaded_mode_reports_wall_nanos(self, capsys):
        assert main(
            ["bench", "--family", "path", "--sizes", "50",
             "--procs", "2", "--kinds", "bfs", "--mode", "threaded"]
        ) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        rec = dict(zip(CSV_COLUMNS, row))
        assert rec["mode"] == "threaded"
        assert int(rec["wall_nanos"]) > 0

    def test_bad_size_token_is_input_error(self, capsys):
        assert main(
            ["bench", "--family", "gnm", "--sizes", "32", "--procs", "1"]
        ) == 2
        assert "n:m" in capsys.readouterr().err


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
