"""Command-line front end: generate graphs, run traversals, verify against
the sequential references, and emit cost-model benchmark tables.

Exit codes are fixed for scripting: 0 success, 1 verification mismatch,
2 bad input (unparsable file, invalid parameters, I/O failure), 3 out of
memory (one ``error:`` line, no traceback), 141 the reader of standard
output closed it early, as in ``arcelim run ... | head`` (the status a
shell reports for a process ended by SIGPIPE); nothing is printed then.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import generators
from .engine import BACKENDS, SIMULATED, THREADED, check_processors
from .errors import GraphError
from .graph import Graph, check_start, parse_edge_list, serialize_edge_list
from .traverse import KINDS, solve, verify_against_oracle

OUT_OF_MEMORY = 3
BROKEN_PIPE = 141

CSV_COLUMNS = (
    "family",
    "n",
    "m",
    "p",
    "mode",
    "kind",
    "time_steps",
    "sync_steps_build",
    "sync_steps_traverse",
    "work",
    "seq_steps",
    "wall_nanos",
    "speedup_model",
)

# family -> gen's flags for its integer parameters, then the separator and
# form of a bench --sizes token; the families with two parameters take the seed
FAMILIES = {
    "gnm": (("n", "m"), ":", "n:m"),
    "complete": (("n",), None, "n"),
    "path": (("n",), None, "n"),
    "star_out": (("n",), None, "n"),
    "layered_dag": (("width", "depth"), "x", "WIDTHxDEPTH"),
    "sample9": ((), None, None),
}


def _read_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_edge_list(text)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def _parse_kinds(text: str) -> list[str]:
    if text == "both":
        return list(KINDS)
    kinds = [tok for tok in text.split(",") if tok]
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown traversal kind {kind!r} (use dfs, bfs, or both)")
    if not kinds:
        raise ValueError("--kinds must name at least one kind")
    return kinds


def _make_graph(family: str, values: list[int], seed: int) -> Graph:
    """The ``family`` graph with its FAMILIES parameters set to ``values``."""
    make = getattr(generators, family)
    return make(*values, seed) if len(values) == 2 else make(*values)


# -- gen -----------------------------------------------------------------------


def _generate(args: argparse.Namespace) -> Graph:
    names = FAMILIES[args.family][0]
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join(f"--{name}" for name in names)
        raise ValueError(f"{args.family} needs {flags}")
    return _make_graph(args.family, values, args.seed)


def cmd_gen(args: argparse.Namespace) -> int:
    _write(args.out, serialize_edge_list(_generate(args)))
    return 0


# -- run -----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    check_processors(args.procs)  # refused before the graph is read
    g = _read_graph(args.input)
    solved = solve(g, args.kind, args.start, args.a0, args.procs, args.mode)
    if args.trace:
        print(*solved.result.trace(), sep="\n", file=sys.stderr)
    build, total = solved.build, solved.engine.report()
    sys.stdout.write(solved.result.serialize())
    sys.stdout.write(
        f"\ntime_steps={total.time_steps}\nsync_steps={total.sync_steps}\n"
        f"work={total.work}\nseq_steps={total.seq_steps}\n"
        f"sync_steps_build={build.sync_steps}\n"
        f"sync_steps_traverse={total.sync_steps - build.sync_steps}\n"
    )
    return 0


# -- verify --------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    # the flags are refused before the graph is read, and a bad start
    # before the first solve
    starts = None if args.starts == "all" else _parse_ints(args.starts, "--starts")
    kinds = _parse_kinds(args.kinds)
    check_processors(args.procs)
    g = _read_graph(args.input)
    n = g.num_vertices
    if n == 0:  # fail as run does: there is no start vertex
        check_start(0, 0)
    if starts is None:
        starts = range(n)
    for s in starts:
        check_start(s, n)
    checked = 0
    failed = 0
    for s in starts:
        for kind in kinds:
            report = verify_against_oracle(g, s, kind, args.procs, args.mode)
            checked += 1
            if not report.ok:
                failed += 1
                first = report.mismatches[0]
                print(f"MISMATCH kind={kind} start={s}: {first}")
    if failed:
        print(f"{failed} of {checked} runs disagreed with the sequential reference")
        return 1
    print(f"OK: {checked} runs match the sequential reference")
    return 0


# -- bench ---------------------------------------------------------------------


def _parse_size(family: str, token: str) -> list[int]:
    """The FAMILIES parameters that one ``--sizes`` token names."""
    names, sep, form = FAMILIES[family]
    try:
        values = [int(text) for text in (token.split(sep) if sep else [token])]
    except ValueError:
        values = []
    if len(values) != len(names):
        raise ValueError(f"--sizes expects {form} for {family}, got {token!r}")
    return values


def cmd_bench(args: argparse.Namespace) -> int:
    procs = [check_processors(p) for p in _parse_ints(args.procs, "--procs")]
    kinds = _parse_kinds(args.kinds)
    # check every flag first, so a bad one is refused before any graph is made
    sizes = [_parse_size(args.family, tok) for tok in args.sizes.split(",") if tok]
    if not sizes:
        raise ValueError("--sizes must name at least one size")
    rows: list[list] = []
    for values in sizes:
        g = _make_graph(args.family, values, args.seed)
        for kind in kinds:
            solved = None
            for p in procs:
                # block sizes do not depend on p, so one simulated run gives
                # every row; a threaded row needs its own run for wall_nanos
                if solved is None or args.mode == THREADED:
                    solved = solve(g, kind, args.start, 0, p, args.mode)
                build, total = solved.build, solved.engine.report(p)
                rows.append([
                    args.family, g.num_vertices, g.num_arcs, p, args.mode, kind,
                    total.time_steps, build.sync_steps, total.sync_steps - build.sync_steps,
                    total.work, total.seq_steps,
                    solved.wall_ns if args.mode == THREADED else None,  # wall_nanos: threaded only
                    # speedup_model: time_steps(p=1) / time_steps(p); the former is
                    # work + seq_steps
                    "%.6f" % ((total.work + total.seq_steps) / total.time_steps),
                ])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    _write(args.out, text.getvalue())
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcelim",
        description="Ordered parallel DFS/BFS by arc elimination: generate, run, verify, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and write its edge list")
    gen.add_argument(
        "--family",
        required=True,
        choices=list(FAMILIES),
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--width", type=int)
    gen.add_argument("--depth", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-", help="output path, - for stdout")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run one traversal, print result and costs")
    run.add_argument("kind", choices=list(KINDS))
    run.add_argument("input", help="edge-list path, - for stdin")
    run.add_argument("--start", type=int, default=0)
    run.add_argument("--a0", type=int, default=0, help="first traversal number")
    run.add_argument("--procs", type=int, default=1)
    run.add_argument("--mode", choices=BACKENDS, default=SIMULATED)
    run.add_argument(
        "--trace", action="store_true", help="log each visit to stderr once the run returns"
    )
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser(
        "verify", help="check traversals against the sequential references"
    )
    verify.add_argument("input", help="edge-list path, - for stdin")
    verify.add_argument("--kinds", default="both", help="dfs, bfs, or both")
    verify.add_argument("--starts", default="all", help="comma-separated ids, or all")
    verify.add_argument("--procs", type=int, default=1)
    verify.add_argument("--mode", choices=BACKENDS, default=SIMULATED)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="emit a CSV of cost-model measurements")
    bench.add_argument(
        "--family",
        required=True,
        choices=[family for family, (names, _, _) in FAMILIES.items() if names],
    )
    bench.add_argument(
        "--sizes",
        required=True,
        help="comma-separated: n, n:m for gnm, WIDTHxDEPTH for layered_dag",
    )
    bench.add_argument("--procs", default="1,2,4,8", help="comma-separated p values")
    bench.add_argument("--kinds", default="both", help="dfs, bfs, or both")
    bench.add_argument("--mode", choices=BACKENDS, default=SIMULATED)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--start", type=int, default=0)
    bench.add_argument("--out", default="-", help="CSV path, - for stdout")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on --help and on bad flags
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
    except BrokenPipeError:
        # what is still buffered goes to the null device, so that the
        # interpreter's flush at exit cannot fail on the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return OUT_OF_MEMORY
    return code


if __name__ == "__main__":
    sys.exit(main())
