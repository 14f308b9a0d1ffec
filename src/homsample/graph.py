"""Immutable graph and node-signal containers with text-format ingestion.

Graphs are undirected and weighted, over dense 0-based node ids. Each
unordered edge is stored exactly once with ``i < j``; weights are strictly
positive and finite (a zero-weight pair is a non-edge). The edge arrays
are frozen at construction. A CSR adjacency over both directions supports
O(deg) traversal; only the shortest-path code reads it, so it is built,
frozen and kept the first time a traversal asks for it. The other state
that changes later is the per-instance shortest-path state: the source ->
DAG cache (``_sp_cache``), which :mod:`homsample.shortest_paths` keeps
within a fixed byte budget by counting the bytes it holds
(``_sp_cache_bytes``), and the edge betweenness (``_betweenness``), which
:mod:`homsample.inclusion` keeps once computed.

Edge lists and label files are read once and parsed over numpy arrays,
which also names the first bad line of a malformed text (see "text
formats" below). A label file, one line per node, is parsed whole; an
edge list in line-aligned chunks of a fixed size, so that beyond the text
and the parsed rows its parse holds one chunk's field table. The rows
become a graph through one stable sort of their pair keys, and the graph
keeps the arrays that sort made. A graph has one node per label, or
without labels ``max id + 1`` nodes, at most ``UNLABELLED_NODE_LIMIT``."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list input; message carries the 1-based line number."""


class LabelError(ValueError):
    """Malformed or incomplete label input."""


class UnlabelledNodeError(EdgeListError):
    """An edge endpoint at or above the number of labelled nodes."""


UNLABELLED_NODE_LIMIT = 1 << 24   # arrays of 8 B per node, or per class, stay within 128 MiB


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    numpy sorts 16-bit keys stably by a radix sort, in linear time, so the
    keys are sorted one 16-bit digit at a time, least significant first.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, max(bound - 1, 1).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _check_rows(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """Refuse endpoint and weight arrays of unequal lengths, or a node id outside [0, n)."""
    if i.shape != j.shape or i.shape != w.shape:
        raise ValueError("endpoint and weight arrays must have equal length")
    if len(i) and (i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n):
        raise ValueError(f"node id out of range [0, {n})")


class Graph:
    """Undirected weighted graph with canonical edge storage.

    Parameters
    ----------
    node_count : int
        Number of nodes; ids are ``0 .. node_count - 1``.
    edge_i, edge_j : int arrays
        Endpoints with ``edge_i < edge_j``, lexicographically sorted,
        no duplicates.
    edge_w : float array
        Strictly positive weights, aligned with the endpoint arrays.

    Use :meth:`from_arrays` or :meth:`from_edges` to build from raw
    (possibly unsorted, duplicated, or reversed) pair data; arrays given
    here that are not in that form are refused with the condition they fail.
    """

    __slots__ = (
        "node_count", "edge_i", "edge_j", "edge_w",
        "_indptr", "_nbr", "_nbr_eid", "_sp_cache", "_sp_cache_bytes", "_betweenness",
    )

    def __init__(self, node_count, edge_i, edge_j, edge_w):
        # own copies: freezing must not flip writability of caller arrays
        i, j = np.array(edge_i, dtype=np.int64), np.array(edge_j, dtype=np.int64)
        w = np.array(edge_w, dtype=np.float64)
        _check_rows(int(node_count), i, j, w)
        if np.any(i >= j):
            raise ValueError("each edge needs edge_i < edge_j")
        if np.any((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))):
            raise ValueError("edge pairs must be strictly increasing: sorted, with no duplicates")
        if not np.all(w > 0):
            raise ValueError("edge weights must be > 0")
        self._own(node_count, i, j, w)

    def _own(self, node_count, edge_i, edge_j, edge_w):
        """Set up the graph on ``edge_*``, which it takes and freezes without a copy."""
        self.node_count = int(node_count)
        self.edge_i, self.edge_j, self.edge_w = _freeze(edge_i), _freeze(edge_j), _freeze(edge_w)
        self._indptr = self._nbr = self._nbr_eid = None
        self._sp_cache = {}
        self._sp_cache_bytes = 0
        self._betweenness = None

    @classmethod
    def from_arrays(cls, node_count, i, j, w=None) -> "Graph":
        """Canonicalize raw endpoint arrays into a Graph.

        Reversed duplicates merge by summing weights in input order; pairs
        whose merged weight is zero are dropped. Raises on self-loops,
        out-of-range ids, negative or non-finite weights and a node count
        whose square overflows int64.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.ones(len(i)) if w is None else np.asarray(w, dtype=np.float64)
        n = int(node_count)
        _check_rows(n, i, j, w)
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite edge weight")
        if np.any(w < 0):
            raise ValueError("negative edge weight")
        if n * n > np.iinfo(np.int64).max:
            raise ValueError(f"node count {n} is too large: pair keys n * n overflow int64")
        # the pair key min * n + max, as min * (n - 1) + i + j: one temporary
        key = np.minimum(i, j)
        key *= n - 1
        key += i
        key += j
        # a stable sort keeps each pair's rows in input order, so bincount sums
        # them in the order np.unique's inverse would
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(len(key), dtype=bool)   # the first row of each pair
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        uniq = key[first]
        del key
        w = w[order]
        group = np.cumsum(first, out=order)   # order is dead: its buffer takes the pair numbers
        del first
        group -= 1
        wsum = np.bincount(group, weights=w, minlength=len(uniq))
        del group, order, w
        keep = wsum > 0
        if not keep.all():
            uniq, wsum = uniq[keep], wsum[keep]
        g = cls.__new__(cls)
        edge_i = uniq // n
        # bincount of no rows is int64, even with weights
        g._own(n, edge_i, np.remainder(uniq, n, out=uniq), wsum.astype(np.float64, copy=False))
        return g

    @classmethod
    def from_edges(cls, node_count, edges) -> "Graph":
        """Build from an iterable of ``(i, j)`` or ``(i, j, w)`` tuples."""
        rows = [(e[0], e[1], e[2] if len(e) > 2 else 1.0) for e in edges]
        if not rows:
            return cls.from_arrays(node_count, [], [], [])
        i, j, w = zip(*rows)
        return cls.from_arrays(node_count, i, j, w)

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, nbr, nbr_eid)``, the CSR adjacency over both directions:
        built, frozen and kept the first time a traversal asks for it.

        Node v's arcs are ``indptr[v]:indptr[v + 1]``: first the edges where
        v is ``edge_i``, then those where it is ``edge_j``, each group in
        edge order. ``indptr`` is int64; ``nbr`` and ``nbr_eid`` are int32,
        8 B per arc, so a graph with 2^31 nodes or arcs is refused. The
        build is a counting sort: ``edge_i`` is sorted, so each node's
        first group is a run of consecutive edges, and the second group is
        ordered by a stable 16-bit radix sort of ``edge_j``. Beyond its
        result it holds a few edge-sized arrays and no node-sized one.
        """
        if self._indptr is None:
            n, m = self.node_count, len(self.edge_i)
            if n >= 1 << 31 or 2 * m >= 1 << 31:
                raise ValueError(f"a graph of {n} nodes and {2 * m} arcs is too large for "
                                 "32-bit traversal ids (at most 2^31 - 1 of each)")
            ei, ej = self.edge_i, self.edge_j
            # entry v + 1 counts v's edges; summed in place, the one node-sized array is indptr
            indptr = np.bincount(ei + 1, minlength=n + 1)
            np.add.at(indptr, ej + 1, 1)
            np.cumsum(indptr, out=indptr)
            by_j = stable_argsort(ej, n)
            sorted_j = ej[by_j]
            nbr = np.empty(2 * m, dtype=np.int32)
            nbr_eid = np.empty(2 * m, dtype=np.int32)
            e = np.arange(m)
            # edge e's arc out of edge_i[e] follows the arcs of earlier nodes into edge_j
            pos = np.searchsorted(sorted_j, ei)
            pos += e
            nbr[pos], nbr_eid[pos] = ej, e
            # the k-th arc out of an edge_j follows all arcs out of an edge_i up to that node
            pos = np.searchsorted(ei, sorted_j, side="right")
            pos += e
            nbr[pos], nbr_eid[pos] = ei[by_j], by_j
            self._nbr, self._nbr_eid, self._indptr = _freeze(nbr), _freeze(nbr_eid), _freeze(indptr)
        return self._indptr, self._nbr, self._nbr_eid

    # -- basic queries -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_i)

    def neighbors(self, v: int) -> np.ndarray:
        indptr, nbr, _ = self._adjacency()
        return nbr[indptr[v]:indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every node."""
        return np.diff(self._adjacency()[0])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.edge_i, other.edge_i)
                and np.array_equal(self.edge_j, other.edge_j)
                and np.array_equal(self.edge_w, other.edge_w))

    __hash__ = None

    def __repr__(self):
        return f"Graph(n={self.node_count}, edges={self.edge_count})"


def total_edge_weight(g: Graph) -> float:
    """Sum of weights over stored edges (each unordered edge once); inf when
    they sum past the largest float64."""
    with np.errstate(over="ignore"):
        return float(g.edge_w.sum())


def _checked_class_count(count) -> int:
    """``count`` if it is an integer from 1 to UNLABELLED_NODE_LIMIT."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"'class_count' is not an integer >= 1: {count!r}")
    if count > UNLABELLED_NODE_LIMIT:
        raise ValueError(f"'class_count' {count} is above the limit of {UNLABELLED_NODE_LIMIT}")
    return int(count)


@dataclass(frozen=True, eq=False)
class GraphSignal:
    """Per-node feature rows, or class labels: exactly one of the two.

    ``GraphSignal(rows)`` holds an n x d float64 array, and a labelled
    signal, from :meth:`from_labels`, n int64 labels in ``[0, class_count)``
    and no rows; ``dim`` is d or the class count. Each is a frozen copy.
    """

    rows: np.ndarray | None
    labels: np.ndarray | None = None
    class_count: int | None = None

    def __post_init__(self):
        if self.labels is None:
            rows = np.array(self.rows, dtype=np.float64)
            if rows.ndim != 2:
                raise ValueError("signal rows must be a 2-d array")
            object.__setattr__(self, "rows", _freeze(rows))
            return
        if self.rows is not None:
            raise ValueError("a signal holds feature rows or labels, not both")
        count = _checked_class_count(self.class_count)
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d array")
        if len(labels) and (labels.min() < 0 or labels.max() >= count):
            raise ValueError(f"class id out of range [0, {count})")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "class_count", count)

    @classmethod
    def from_labels(cls, labels, class_count: int) -> "GraphSignal":
        """The labelled signal of ``labels``, each in ``[0, class_count)``."""
        return cls(None, labels, class_count)

    @property
    def node_count(self) -> int:
        return len(self.rows if self.labels is None else self.labels)

    @property
    def dim(self) -> int:
        return self.rows.shape[1] if self.labels is None else self.class_count


# -- text formats ----------------------------------------------------------
#
# Edge list: UTF-8, whitespace-separated "i j" or "i j w", '#' comments.
# Labels:    one "node_id class_id" per line, every node exactly once.
#
# Line k of a text is its k-th "\n"-separated piece, and whitespace is
# what str.isspace() says, as for str.split(). A text is read once into
# one str, so a decode error names its offset in the file. A label file
# is parsed as one table; an edge list in chunks of _CHUNK_CHARS
# characters, each cut after a "\n", whose line numbers go on from the
# chunks before. Comments are cut, and numpy finds the bytes of every
# field and the fields of each row, a line that holds any. Ids of 1 to
# 18 ASCII digits and weights of 1 to 15 ASCII digits with at most one
# "." are read from their bytes; every other id goes through int() and
# every other weight through float(), so the accepted syntax is
# Python's. Each check a line must pass is a mask over the rows, and an
# error names the first row that fails one; the first chunk with such a
# row raises, so it is the first bad line of the text. Loading a
# W-random dump whose weights are all "1.0" peaks (tracemalloc, Python
# 3.11, numpy 2.4) at the larger of two costs: while it parses, one
# chunk's field table, about 1.8 MB, and 38 bytes per edge for the text
# and the parsed rows; while Graph.from_arrays builds the graph, about
# 57 bytes per edge, the graph's own 24 included. So 44k edges peak at
# 77 bytes per edge and 163k edges at 57.

_COMMENT = re.compile("#[^\n]*")
_SPACE_BUT_NEWLINE = re.compile(r"[^\S\n]")   # for str patterns \s is str.isspace()
_SPACE = np.array([c < 128 and chr(c).isspace() for c in range(256)])   # by UTF-8 byte
_POW10 = np.array([float(10 ** k) for k in range(16)])   # each exact in float64
_CHUNK_CHARS = 1 << 17   # an edge list is parsed this many characters, to a line end, at a time


def _read(source) -> str:
    """The text of a path, or of an iterable of lines, each given its
    ``"\\n"``. A file that is not UTF-8 raises UnicodeDecodeError at the
    byte offset of its first bad byte."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return "".join(line if line.endswith("\n") else line + "\n" for line in source)


def _line_chunks(text: str):
    """``(piece, line)`` pairs that cut text after the first ``"\\n"`` at or
    past every _CHUNK_CHARS characters, ``line`` the 0-based number of the
    piece's first line in text. An empty text is one empty piece."""
    start, line = 0, 0
    while True:
        cut = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        piece = text[start:cut]
        yield piece, line
        if cut == len(text):
            return
        start, line = cut, line + piece.count("\n")


def _convert(convert, tokens: list[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` of each token, and a mask of the tokens it reads; a
    token it refuses reads as 0. Tokens are read one at a time only
    after the batch meets one."""
    ok = np.ones(len(tokens), dtype=bool)
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens)), ok
    except ValueError:
        values = np.zeros(len(tokens), dtype=dtype)
    for k, token in enumerate(tokens):
        try:
            values[k] = convert(token)
        except ValueError:
            ok[k] = False
    return values, ok


@dataclass(frozen=True, eq=False)
class _FieldTable:
    """The fields of a text, by row.

    ``b`` is the text without comments as UTF-8 bytes, each whitespace
    character but ``"\\n"`` made an ASCII space, with one space appended;
    field f spans ``b[first[f]:end[f]]``, fields in text order. ``text``
    is a whole text, or its lines from line ``first_line`` (0-based) on.
    Row r is line ``line[r]`` of the whole text and holds ``count[r]``
    fields from field ``start[r]`` on.
    """

    text: str
    b: np.ndarray
    first: np.ndarray
    end: np.ndarray
    line: np.ndarray
    start: np.ndarray
    count: np.ndarray
    first_line: int

    def field(self, c: int) -> np.ndarray:
        """Field c of every row; a row with fewer fields, which fails its
        field-count check, gives its last."""
        return self.start + np.minimum(c, self.count - 1)

    def tokens(self, f: np.ndarray) -> list[str]:
        """The text of fields f."""
        first = self.first[f]
        width = self.end[f] - first + 1   # each field and the space after it
        at = np.repeat(first - np.cumsum(width) + width, width) + np.arange(width.sum())
        return self.b[at].tobytes().decode("utf-8", "surrogatepass").split()

    def ints(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int() of fields f, and a mask of the fields it reads.

        Fields of 1 to 18 ASCII digits, which int() reads alike and int64
        holds, are read from their bytes. The array is int64, or of Python
        ints when a value does not fit.
        """
        first = self.first[f]
        width = self.end[f] - first
        plain = width <= 18
        value = np.zeros(len(f), dtype=np.int64)
        for d in range(min(int(width.max(initial=0)), 18)):
            live = plain & (width > d)
            digit = self.b[np.where(live, first + d, 0)] - np.uint8(48)
            plain &= ~live | (digit <= 9)
            value = np.where(live, value * 10 + digit, value)
        odd = np.flatnonzero(~plain)
        ok = np.ones(len(f), dtype=bool)
        if len(odd):
            read, ok[odd] = _convert(int, self.tokens(f[odd]), object)
            try:
                value[odd] = read
            except OverflowError:
                value = value.astype(object)
                value[odd] = read
        return value, ok

    def decimals(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """float() of fields f, and a mask of the fields it reads.

        Fields of 1 to 15 ASCII digits and at most one ".", which float()
        reads alike, are read from their bytes: their digits make an
        integer below 2**53 and the "." a power of ten, both exact in
        float64, so the quotient rounds once, as float() does (Clinger
        1990, "How to read floating point numbers accurately").
        """
        first = self.first[f]
        width = self.end[f] - first
        plain = width <= 16
        mantissa = np.zeros(len(f), dtype=np.int64)
        point = np.full(len(f), -1)   # position of the "."
        for d in range(min(int(width.max(initial=0)), 16)):
            live = plain & (width > d)
            byte = self.b[np.where(live, first + d, 0)]
            digit = byte - np.uint8(48)
            is_digit = digit <= 9
            dot = live & (byte == 46) & (point < 0)
            plain &= ~live | is_digit | dot
            point[dot] = d
            mantissa = np.where(live & is_digit, mantissa * 10 + digit, mantissa)
        digits = width - (point >= 0)
        plain &= (digits >= 1) & (digits <= 15)
        scale = np.where(plain & (point >= 0), width - 1 - point, 0)
        value = mantissa / _POW10[scale]
        odd = np.flatnonzero(~plain)
        ok = np.ones(len(f), dtype=bool)
        if len(odd):
            value[odd], ok[odd] = _convert(float, self.tokens(f[odd]), np.float64)
        return value, ok

    def raw(self, r: int) -> str:
        """Row r's line as the text holds it, comment included, stripped."""
        k = int(self.line[r]) - self.first_line
        return self.text.split("\n", k + 1)[k].strip()

    def raise_first(self, error, checks) -> None:
        """Raise ``error`` at the first row failing one of ``checks``,
        ``(mask over rows, message(r))`` pairs in the order a line is
        checked, with the message of the first check that row fails."""
        failing = np.logical_or.reduce([mask for mask, _ in checks])
        if failing.any():
            r = int(failing.argmax())
            message = next(message for mask, message in checks if mask[r])
            raise error(f"line {self.line[r] + 1}: {message(r)}")


def _field_table(text: str, first_line: int = 0) -> _FieldTable:
    bare = _COMMENT.sub("", text) if "#" in text else text
    if not bare.isascii():
        bare = _SPACE_BUT_NEWLINE.sub(" ", bare)
    b = np.frombuffer((bare + " ").encode("utf-8", "surrogatepass"), dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(_SPACE.take(b), prepend=True))   # b ends in a space
    first, end = bounds[0::2], bounds[1::2]
    per_line = np.diff(np.searchsorted(first, np.flatnonzero(b == 10)), prepend=0, append=len(first))
    line = np.flatnonzero(per_line)
    count = per_line[line]
    return _FieldTable(text, b, first, end, line + first_line, np.cumsum(count) - count, count,
                       first_line)


def _edge_columns(t: _FieldTable):
    """``(i, j, w, max_id, line)`` of an edge list or a chunk of one, ``line``
    the first to hold ``max_id`` (1-based, in the whole list); raises
    EdgeListError naming the first bad line."""
    i, i_ok = t.ints(t.field(0))
    j, j_ok = t.ints(t.field(1))
    w, w_ok = np.ones(len(i)), np.ones(len(i), dtype=bool)
    weighted = np.flatnonzero(t.count == 3)
    w[weighted], w_ok[weighted] = t.decimals(t.start[weighted] + 2)
    t.raise_first(EdgeListError, [
        ((t.count < 2) | (t.count > 3), lambda r: f"expected 'i j' or 'i j w', got {t.raw(r)!r}"),
        (~(i_ok & j_ok & w_ok), lambda r: f"not numeric: {t.raw(r)!r}"),
        ((i < 0) | (j < 0), lambda r: "negative node id"),
        (i == j, lambda r: f"self-loop at node {i[r]}"),
        (~np.isfinite(w), lambda r: f"non-finite weight {float(w[r])}"),
        (w < 0, lambda r: f"negative weight {float(w[r])}"),
    ])
    if not len(i):
        return i, j, w, -1, 0
    ends = np.maximum(i, j)
    top = int(ends.argmax())
    return i, j, w, int(ends[top]), int(t.line[top]) + 1


def load_edge_list(source, labelled: int | None = None) -> Graph:
    """Parse an edge-list text stream or path into a canonical Graph.

    Duplicate ``(i, j)`` / ``(j, i)`` lines merge by summing weights.
    The graph has ``labelled`` nodes, the number a label file names, and
    an endpoint at or above it raises UnlabelledNodeError; without it,
    ``max id + 1`` nodes, and a largest id of UNLABELLED_NODE_LIMIT or
    more raises EdgeListError naming the first line that holds it. Both
    come before any array sized by the node count. A malformed line
    raises EdgeListError naming the first bad line.
    """
    columns, max_id, line = [], -1, 0
    for piece, first_line in _line_chunks(_read(source)):
        *chunk, top, top_line = _edge_columns(_field_table(piece, first_line))
        columns.append(chunk)
        if top > max_id:
            max_id, line = top, top_line
    if labelled is not None and max_id >= labelled:
        raise UnlabelledNodeError(
            f"edge endpoint node {max_id} has no label: the label file names {labelled} nodes")
    if labelled is None and max_id >= UNLABELLED_NODE_LIMIT:
        raise EdgeListError(
            f"line {line}: node id {max_id} exceeds {UNLABELLED_NODE_LIMIT - 1}, "
            "the largest id an edge list may hold without labels; "
            "give --labels so the label file sets the node count")
    i, j, w = (np.concatenate(c) for c in zip(*columns))
    del columns   # the chunks' copy of i, j and w, freed before the graph is built
    return Graph.from_arrays(max_id + 1 if labelled is None else labelled, i, j, w)


def dump_edge_list(g: Graph) -> str:
    """Edge-list text of g's edges, one ``i j w`` line each.

    ``load_edge_list(text, labelled=g.node_count)`` reloads an identical
    Graph. The text itself does not record the node count, so without
    ``labelled`` isolated nodes above the largest endpoint id are lost.
    """
    return "".join(f"{i} {j} {w!r}\n" for i, j, w in
                   zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()))


def _label_signal(t: _FieldTable, class_count: int, n: int) -> GraphSignal:
    """The labelled GraphSignal of a label file's field table; raises
    LabelError naming the first bad line, or the first unlabelled node."""
    class_count = _checked_class_count(class_count)
    labels = np.full(n, -1, dtype=np.int64)
    node, node_ok = t.ints(t.field(0))
    cls, cls_ok = t.ints(t.field(1))
    numeric = node_ok & cls_ok
    node_in = (node >= 0) & (node < n)
    cls_in = (cls >= 0) & (cls < class_count)
    valid = np.flatnonzero((t.count == 2) & numeric & node_in & cls_in)
    order = valid[np.argsort(node[valid], kind="stable")]
    repeat = np.zeros(len(node), dtype=bool)   # a node named by an earlier valid row
    repeat[order[1:][node[order[1:]] == node[order[:-1]]]] = True
    t.raise_first(LabelError, [
        (t.count != 2, lambda r: "expected 'node_id class_id'"),
        (~numeric, lambda r: f"not numeric: {t.raw(r)!r}"),
        (~node_in, lambda r: f"node {node[r]} out of range [0, {n})"),
        (~cls_in, lambda r: f"class {cls[r]} out of range [0, {class_count})"),
        (repeat, lambda r: f"duplicate node {node[r]}"),
    ])
    labels[np.asarray(node, dtype=np.int64)] = cls
    missing = np.flatnonzero(labels < 0)
    if len(missing):
        raise LabelError(f"missing label for node {missing[0]}")
    return GraphSignal.from_labels(labels, class_count)


def load_labels(source, class_count: int, n: int) -> GraphSignal:
    """Parse "node_id class_id" lines into a labelled GraphSignal.

    Every node in ``[0, n)`` must appear exactly once; a malformed line
    raises LabelError naming the first bad line.
    """
    return _label_signal(_field_table(_read(source)), class_count, n)


def load_labelled(edge_source, label_source, class_count: int) -> tuple[Graph, GraphSignal]:
    """Load an edge list and the label file that names its nodes.

    The label file names every node once, so its row count sizes the
    graph; isolated nodes absent from the edge list are kept, and an
    edge endpoint beyond the labelled nodes raises UnlabelledNodeError
    before any array sized by the node count is built. The label file is
    read and parsed once.
    """
    labels = _field_table(_read(label_source))
    g = load_edge_list(edge_source, labelled=len(labels.line))
    return g, _label_signal(labels, class_count, g.node_count)


def karate_manifest_path() -> Path:
    """Path to the bundled weighted karate-club fixture manifest."""
    return Path(__file__).parent / "data" / "karate.json"


def load_dataset(manifest_path) -> tuple[Graph, GraphSignal, str]:
    """Graph, labels and name of the dataset a manifest JSON names (see README
    "File formats"); the files load as in :func:`load_labelled`."""
    path = Path(manifest_path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"manifest {str(path)!r} is not a JSON object")
    for field in ("name", "edge_file", "label_file", "class_count"):
        if field not in raw:
            raise ValueError(f"manifest missing field {field!r}")
    for field in ("edge_file", "label_file"):
        if not isinstance(raw[field], str):
            raise ValueError(f"manifest field {field!r} is not a string: {raw[field]!r}")
    g, s = load_labelled(path.parent / raw["edge_file"], path.parent / raw["label_file"],
                         raw["class_count"])
    return g, s, str(raw["name"])
