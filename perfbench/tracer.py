"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces public callables of ``arcelim`` modules with timing
wrappers while it is installed (``with tracer:``) and puts the originals
back on exit, so nothing under ``src/`` carries a hook.  Spans are not
kept one by one: a traced ``gnm(20000, 400000)`` solve opens about 60,000
of them.  Instead each span adds its duration to per-name totals, and its
self time (duration minus the spans it directly encloses) to a second
table.  ``par_for`` additionally records every block's size and the time
its busiest worker spent inside the block's bodies.

A hook whose callable no longer exists is reported in ``missing`` and the
metrics built on it read ``None``; installing never fails on its account.
"""
from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from time import perf_counter

# span name -> the callables that open it, as (module, class or None, attribute)
HOOKS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "gen": (
        ("arcelim.generators", None, "gnm"),
        ("arcelim.generators", None, "path"),
        ("arcelim.generators", None, "layered_dag"),
    ),
    "parse": (("arcelim.graph", None, "parse_edge_list"),),
    "build": (("arcelim.elim", "ElimGraph", "build"),),
    "eliminate": (("arcelim.elim", "ElimGraph", "eliminate_incoming"),),
    "par_for": (("arcelim.engine", "ParEngine", "par_for"),),
    "traverse": (
        ("arcelim.traverse", None, "dfs"),
        ("arcelim.traverse", None, "bfs"),
    ),
    "collect": (("arcelim.result", "TraversalResult", "collect"),),
    "oracle": (
        ("arcelim.oracle", None, "seq_dfs"),
        ("arcelim.oracle", None, "seq_bfs"),
    ),
    "on_eliminate": (("arcelim.instrument", "InvariantMonitor", "on_eliminate"),),
    "after_visit": (("arcelim.instrument", "InvariantMonitor", "after_visit"),),
    "finish": (("arcelim.instrument", "InvariantMonitor", "finish"),),
}


class Tracer:
    """Aggregated spans over the callables in ``HOOKS``.

    ``total[name]`` and ``self_time[name]`` are seconds summed over every
    span of that name; ``by_parent[(parent, name)]`` splits ``total`` by the
    enclosing span (``None`` at top level).  ``blocks`` lists
    ``(parent, size)`` for every ``par_for`` in call order, and
    ``body_time`` sums, per block, the busiest worker's span from its first
    body call to the end of its last.

    Spans nest on the thread that installed the tracer.  A hook that fires
    on a worker thread (the monitor under the threaded backend) counts
    toward ``total`` but encloses nothing.
    """

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.by_parent: defaultdict[tuple[str | None, str], float] = defaultdict(float)
        self.blocks: list[tuple[str | None, int]] = []
        self.body_time = 0.0
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, enclosed child seconds]
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._main = 0

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> Tracer:
        self._main = threading.get_ident()
        self.missing.clear()
        for name, sites in HOOKS.items():
            for module_name, class_name, attr in sites:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                if owner is not None and class_name is not None:
                    owner = getattr(owner, class_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.add(name)
                    continue
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self._stack.clear()

    def _wrap(self, name: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        fn = self._par_for(raw) if name == "par_for" else raw

        def span(*args, **kwargs):
            if threading.get_ident() != self._main:
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add_worker(name, perf_counter() - t0)
            frame = [name, 0.0]
            stack = self._stack
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.by_parent[(parent, name)] += dt

        return span

    def _add_worker(self, name: str, dt: float) -> None:
        with self._lock:
            self.total[name] += dt
            self.self_time[name] += dt

    def _par_for(self, raw):
        """Wrap ``ParEngine.par_for`` so each block records its size and
        the busiest worker's time inside the bodies."""
        tracer = self

        def par_for(engine, count, body):
            marks: dict[int, list[float]] = {}
            get_ident = threading.get_ident

            def timed(i):
                mark = marks.get(get_ident())
                if mark is None:
                    mark = marks[get_ident()] = [perf_counter(), 0.0]
                body(i)
                mark[1] = perf_counter()

            # the top frame is this block's own par_for span
            stack = tracer._stack
            tracer.blocks.append((stack[-2][0] if len(stack) > 1 else None, count))
            try:
                return raw(engine, count, timed)
            finally:
                tracer.body_time += max((end - start for start, end in marks.values()),
                                        default=0.0)

        return par_for

    # -- queries -------------------------------------------------------------

    def seconds(self, name: str) -> float | None:
        """Total seconds in spans of ``name``; None if its hook is missing."""
        return None if name in self.missing else self.total[name]

    def self_seconds(self, name: str) -> float | None:
        return None if name in self.missing else self.self_time[name]

    def seconds_under(self, parent: str, name: str) -> float | None:
        """Seconds in spans of ``name`` opened directly inside ``parent``."""
        if name in self.missing or parent in self.missing:
            return None
        return self.by_parent[(parent, name)]

    def block_sizes(self, parent: str | None = None) -> list[int] | None:
        """Sizes of recorded blocks, all of them or those opened inside
        ``parent``; None if ``par_for`` (or ``parent``) is not hooked."""
        if "par_for" in self.missing or parent in self.missing:
            return None
        return [k for owner, k in self.blocks if parent is None or owner == parent]
