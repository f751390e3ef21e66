"""Immutable input digraphs as ordered adjacency arrays.

A graph is a plain array of per-vertex target sequences.  The position of a
target inside its source's sequence is significant: ordered DFS/BFS visit
children in exactly this order, so two graphs with equal arc sets but
different adjacency order are different inputs.

Vertices are the integers 0..n-1.  Only simple digraphs are accepted (at
most one arc per (source, target) pair), and the constructor checks this;
self-loops are allowed.  The duplicate ban is load-bearing: downstream,
each parallel block writes one incoming-arc table entry per distinct
target and unlinks at most one slot per source list, and both guarantees
break on repeated arcs.

The same adjacency is held twice, and both are read-only:

* ``out_lists``, a tuple of per-vertex target tuples holding the very int
  objects the caller passed in, read by the oracle and by readers outside
  the package;
* ``off`` (n+1) and ``tgt`` (m), compressed sparse rows as unsigned
  ``array(ID)``, the one typecode of every stored vertex and arc id: u's
  targets are ``tgt[off[u]:off[u+1]]``, and arc ids are positions in ``tgt``.

A third array, ``in_off`` (n+1), gives the in-table offsets: v's incoming
arcs take slots ``in_off[v]..in_off[v+1]-1`` of a search structure's
in-table.  It depends on the arcs alone, so it is counted from ``tgt`` on
first use, once per graph, and kept; a graph that is never searched never
counts it.  Every search structure built over the graph shares ``off``,
``tgt`` and ``in_off`` instead of copying them, so a caller must never
write to them.  The serializer reads ``off`` and ``tgt`` too.  ``off`` and
``in_off`` are made at their exact size: an array grown from an iterator
keeps spare room for as long as the graph lives.

The edge-list reader and writer do their per-arc work in C: the writer
formats every arc with one ``%``, and the reader takes the writer's own
(canonical) form with whole-text operations, leaving every other text, and
every error, to a line-by-line parser.
"""
from __future__ import annotations

import json
from array import array
from itertools import accumulate, chain, groupby, islice
from operator import index, mul, sub
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import (CountMismatch, DuplicateArc, DuplicateArcLine, EdgeListSyntaxError,
                     GraphTooLarge, TargetNotInteger, TargetOutOfRange, TargetOutOfRangeLine)

ID = "I"  # array typecode of arc and vertex ids
# the most vertices an id of that type numbers: ids run to n - 1, and
# 0xFFFFFFFF is the result cells' absent marker
MAX_VERTICES = 0xFFFFFFFE
# the most list nodes a search structure numbers: m arcs and n head nodes
MAX_NODES = 1 << 32


class Graph:
    """Immutable, validated digraph over vertices 0..n-1 with ordered
    adjacency arrays ``off`` and ``tgt`` and, from first use, the in-table
    offsets ``in_off``, all read-only and shared by every search structure
    built over it."""

    __slots__ = ("out_lists", "off", "tgt", "num_vertices", "num_arcs", "_in_off")

    def __init__(self, lists: Iterable[Sequence[int]]):
        """Build and validate a graph from per-vertex target sequences.

        Adjacency order is preserved exactly as given.  Raises
        TargetNotInteger, TargetOutOfRange or DuplicateArc on invalid
        input; no partially constructed graph escapes.  Every search
        structure shares ``off``, ``tgt`` and ``in_off``: treat them as
        read-only.
        """
        out_lists = tuple(map(tuple, lists))
        n = len(out_lists)
        tgt = _flatten(out_lists)
        # only a failing input pays for the per-slot walk that finds and
        # names the first bad target
        if tgt is None or tgt and max(tgt) >= n:
            _reject(out_lists)
        self.out_lists = out_lists
        self.off = _offsets(map(len, out_lists), n)
        self.tgt = tgt
        self.num_vertices = n
        self.num_arcs = len(tgt)
        self._in_off: array | None = None

    @property
    def in_off(self) -> array:
        """The n+1 in-table offsets, the prefix sums of the in-degrees:
        v's incoming arcs take slots ``in_off[v]..in_off[v+1]-1``.  Counted
        from ``tgt`` on first read and kept, so every later read, and every
        search structure, gets the same array."""
        if self._in_off is None:
            counts = [0] * self.num_vertices
            for v in self.tgt:
                counts[v] += 1
            self._in_off = _offsets(counts, self.num_vertices)
        return self._in_off

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.off == other.off and self.tgt == other.tgt

    def __hash__(self) -> int:
        return hash((self.off.tobytes(), self.tgt.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_arcs})"


def _offsets(counts: Iterable[int], n: int) -> array:
    """The n+1 prefix sums, from 0, of n ``counts`` in an exact-size
    ``array(ID)``: an array grown from an iterator keeps spare room, so the
    sums are copied into a zero-filled one."""
    off = array(ID, [0]) * (n + 1)
    off[1:] = array(ID, accumulate(counts))
    return off


def _flatten(out_lists: tuple) -> array | None:
    """Every target in one ``array(ID)``, source-major; None if a list
    holds a non-integer, a negative target, one beyond 32 bits or a
    repeated one.

    Each list is copied and checked for repeats in one step, while its int
    objects are still in cache.  ``fromlist`` stores a list with no
    iterator protocol per item, faster than ``extend``, so each tuple is
    first copied to a list in C.  Ids are never negative, so the unsigned
    type rejects a negative target by itself, stores about twice as fast
    as ``'i'``, and the array becomes the graph's ``tgt`` with no copy.
    """
    flat = array(ID)
    fromlist = flat.fromlist
    try:
        for targets in out_lists:
            fromlist(list(targets))
            if len(targets) > 1 and len(set(targets)) != len(targets):
                return None
    except (TypeError, OverflowError):
        return None
    return flat


def _reject(out_lists: tuple) -> NoReturn:
    """Raise the error of the first vertex whose list is invalid.

    Within one list a non-integer is reported first, then a repeated
    target, the graph-shape error, even when it is also out of range,
    then the first target outside 0..n-1.
    """
    n = len(out_lists)
    for u, targets in enumerate(out_lists):
        for slot, t in enumerate(targets):
            try:
                index(t)
            except TypeError:
                raise TargetNotInteger(u, slot, t) from None
        if len(set(targets)) != len(targets):
            ordered = sorted(targets)
            raise DuplicateArc(u, next(a for a, b in zip(ordered, ordered[1:]) if a == b))
        for slot, t in enumerate(targets):
            if not 0 <= t < n:
                raise TargetOutOfRange(u, slot, t, n)
    raise AssertionError("_reject found no invalid target")


def parse_edge_list(text: str) -> Graph:
    """Parse the textual edge-list interchange format.

    First non-comment line is ``n m``; each following non-comment line is one
    arc ``u v`` (0-based).  Per-source adjacency order is the order of
    appearance in the file.  Lines starting with ``#`` are comments; blank
    lines, trailing whitespace, and CRLF endings are tolerated.  Exactly m
    arc lines are required.  Duplicate arcs and out-of-range targets raise
    EdgeListSyntaxError subclasses (also DuplicateArc / TargetOutOfRange)
    naming the offending line.  A header beyond 32-bit ids raises
    GraphTooLarge before anything is allocated for the graph.

    The canonical form, the one serialize_edge_list writes, is read first
    with whole-text operations; any other text, and every error, goes
    through the line-by-line parser.  Both give the same lists for any text
    the first accepts, and end in the same ``Graph`` call.
    """
    lists = _canonical_lists(text)
    if lists is None:
        lists = _line_lists(text)
    try:
        return Graph(lists)
    except DuplicateArc as err:
        at = [no for no, u, v in _arc_lines(text) if (u, v) == (err.source, err.target)]
        raise DuplicateArcLine(at[1], err.source, err.target) from None
    except TargetOutOfRange as err:
        at = [no for no, u, _ in _arc_lines(text) if u == err.source]
        raise TargetOutOfRangeLine(at[err.slot], err.source, err.slot, err.target,
                                   err.num_vertices) from None


def _check_header(n: int, m: int) -> None:
    """Raise GraphTooLarge if n vertices and m arcs do not fit ``ID``."""
    if n > MAX_VERTICES:
        raise GraphTooLarge(n, m, f"header declares {n} vertices; at most {MAX_VERTICES} "
                                  f"fit below the absent id {MAX_VERTICES + 1}")
    if n + m > MAX_NODES:
        raise GraphTooLarge(n, m, f"header declares {n} vertices and {m} arcs; n + m may be "
                                  f"at most {MAX_NODES}, the number of 32-bit list node ids")


def _canonical_lists(text: str) -> list[tuple[int, ...]] | None:
    """Per-vertex target tuples of a text in canonical form, else None.

    Canonical: a header equal to ``f"{n} {m}"``, then exactly m lines
    ``u v\\n`` of decimal digits whose sources never fall.  One comparison
    proves the line shape: deleting the digits from the body leaves one
    space and one newline per arc.  The tokens are then digit strings, and
    a JSON array reads them all in C; it refuses an empty token and a
    leading zero, and reads every other one as ``int()`` does, so the
    values are the line parser's.  Sources must rise strictly from run to
    run and stay below n; then each run is one slice of the targets.
    """
    head, _, body = text.partition("\n")
    try:
        n, m = map(int, head.split(" "))
    except ValueError:
        return None
    if head != f"{n} {m}" or n < 0 or m < 0:
        return None
    _check_header(n, m)
    if not body.isascii() or body[-1:] != ("\n" if m else ""):
        return None
    shape = body.encode().translate(None, b"0123456789")
    if len(shape) != 2 * m or shape != b" \n" * m:
        return None
    try:
        ints = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None
    targets = tuple(islice(ints, 1, None, 2))
    lists: list[tuple[int, ...]] = [()] * n
    end, last = 0, -1
    for u, run in groupby(islice(ints, 0, None, 2)):
        if not last < u < n:
            return None
        start, end = end, end + len(list(run))
        lists[u] = targets[start:end]
        last = u
    return lists


def _line_lists(text: str) -> list[list[int]]:
    """Per-vertex target lists of any edge-list text, read line by line;
    raises the EdgeListSyntaxError or CountMismatch the text earns.

    Arcs are read before any per-vertex storage is allocated, so a header
    that promises more than the text holds costs nothing per vertex.
    """
    records = _records(text)
    line_no, line = next(records, (0, None))
    if line is None:
        raise EdgeListSyntaxError(0, "empty input, missing 'n m' header")
    fields = line.split()
    if len(fields) != 2:
        raise EdgeListSyntaxError(line_no, f"expected 'n m' header, got {line!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListSyntaxError(line_no, f"non-integer header {line!r}") from None
    if n < 0 or m < 0:
        raise EdgeListSyntaxError(line_no, f"negative count in header {line!r}")
    _check_header(n, m)
    sources = array(ID)
    targets: list[int] = []
    seen = 0
    for line_no, line in records:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListSyntaxError(line_no, f"expected 'u v' arc, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListSyntaxError(line_no, f"non-integer arc {line!r}") from None
        if not 0 <= u < n:
            raise EdgeListSyntaxError(line_no, f"source {u} out of range")
        seen += 1
        if seen <= m:
            sources.append(u)
            targets.append(v)
    if seen != m:
        raise CountMismatch(m, seen)
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(sources, targets):
        lists[u].append(v)
    return lists


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of every edge-list line that is neither
    blank nor a ``#`` comment: the header first, then the arcs."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _arc_lines(text: str) -> Iterator[tuple[int, int, int]]:
    """(line number, source, target) of every arc line of an edge list that
    parse_edge_list already read; used only to locate a rejected arc."""
    records = _records(text)
    next(records)  # the header
    for line_no, line in records:
        u, v = line.split()
        yield line_no, int(u), int(v)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list, in its canonical form: adjacency order is
    preserved and sources ascend.

    Reads the CSR arrays: each source id, repeated by its out-degree
    ``off[u+1] - off[u]``, is paired with its targets in ``tgt``, and one
    ``%`` formats every pair in C.
    """
    n, m, off = g.num_vertices, g.num_arcs, g.off
    # (u,) * outdegree(u), flattened: the source of every arc, in arc order
    sources = chain.from_iterable(map(mul, zip(range(n)), map(sub, off[1:], off)))
    return f"{n} {m}\n" + "%d %d\n" * m % tuple(chain.from_iterable(zip(sources, g.tgt)))
