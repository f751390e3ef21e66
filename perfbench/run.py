"""arcelim benchmark: one closed-loop client solving one workload.

    python3 perfbench/run.py --workload gnm-large-dfs --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  A run times three set-ups (generate, serialize, parse), runs
one gated pass at the workload's p and at p = 1, measures memory in its
own untimed pass, and solves pass after pass in three timed segments that
add up to ``--seconds``, with garbage collected between solves.  Every
solve is checked against the sequential oracle and the cost identities; a
failure is counted, not fatal.  perfbench/README.md has the details.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it alternates untraced passes with passes under
a tracer and also reports the tracer's own overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance and a
readable table.  Exit code 2 means the checkout has no ``src/arcelim`` or
an argument is wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_package() -> None:
    """Put the checkout's ``src/`` and this directory first on the path and
    make sure ``arcelim`` comes from the checkout, not an installed copy."""
    if not (SRC / "arcelim" / "__init__.py").is_file():
        raise ImportError(f"no package sources at {SRC / 'arcelim'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import arcelim

    where = Path(arcelim.__file__).resolve().parent
    if where != SRC / "arcelim":
        raise ImportError(f"arcelim imported from {where}, not {SRC / 'arcelim'}")


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, comparable where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "arcelim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(w, seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": w.name,
        "seed": seed,
        "params": w.params,
        "kinds": list(w.kinds),
        "processors": w.processors,
        "backend": w.backend,
        "verified": w.verified,
        "seconds": seconds,
        "trace": int(trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def _format(value) -> str:
    if value is None:
        return "missing"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arcelim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        load_package()
    except ImportError as exc:
        print(f"error: {exc}; run from the root of an arcelim checkout", file=sys.stderr)
        return 2
    from bench import run_workload
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result, details = run_workload(w, args.seed, args.seconds, trace)
    print(json.dumps({"provenance": {**provenance(w, args.seed, args.seconds, trace),
                                     **details}}))
    for name, metric in result["metrics"].items():
        print(f"  {name:30} {_format(metric['value']):>14} {metric['unit']}")
    for name, value in details["wall"].items():
        print(f"  (wall) {name:23} {_format(value):>14}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
