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

Edge lists and label files are read once and parsed in one pass over
numpy arrays, which also names the first bad line of a malformed text
(see "text formats" below). A graph has one node per label, or without
labels ``max id + 1`` nodes, at most ``UNLABELLED_NODE_LIMIT``."""

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


UNLABELLED_NODE_LIMIT = 1 << 24   # node arrays of 8 B per node stay within 128 MiB


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    (possibly unsorted, duplicated, or reversed) pair data.
    """

    __slots__ = (
        "node_count", "edge_i", "edge_j", "edge_w",
        "_indptr", "_nbr", "_nbr_eid", "_sp_cache", "_sp_cache_bytes", "_betweenness",
    )

    def __init__(self, node_count, edge_i, edge_j, edge_w):
        self.node_count = int(node_count)
        # own copies: freezing must not flip writability of caller arrays
        self.edge_i = _freeze(np.array(edge_i, dtype=np.int64))
        self.edge_j = _freeze(np.array(edge_j, dtype=np.int64))
        self.edge_w = _freeze(np.array(edge_w, dtype=np.float64))
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
        if i.shape != j.shape or i.shape != w.shape:
            raise ValueError("endpoint and weight arrays must have equal length")
        if len(i) and (i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n):
            raise ValueError(f"node id out of range [0, {n})")
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite edge weight")
        if np.any(w < 0):
            raise ValueError("negative edge weight")
        if n * n > np.iinfo(np.int64).max:
            raise ValueError(f"node count {n} is too large: pair keys n * n overflow int64")
        key = np.minimum(i, j) * n + np.maximum(i, j)
        uniq, inverse = np.unique(key, return_inverse=True)
        wsum = np.bincount(inverse, weights=w, minlength=len(uniq))
        keep = wsum > 0
        uniq, wsum = uniq[keep], wsum[keep]
        return cls(n, uniq // n, uniq % n, wsum)

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
        built, frozen and kept the first time a traversal asks for it."""
        if self._indptr is None:
            n, m = self.node_count, len(self.edge_i)
            src = np.concatenate([self.edge_i, self.edge_j])
            dst = np.concatenate([self.edge_j, self.edge_i])
            eid = np.concatenate([np.arange(m), np.arange(m)])
            order = np.argsort(src, kind="stable")
            # entry v + 1 counts v's edges; summed in place, the one node-sized array is indptr
            indptr = np.bincount(src + 1, minlength=n + 1).astype(np.int64, copy=False)
            self._nbr = _freeze(dst[order])
            self._nbr_eid = _freeze(eid[order])
            self._indptr = _freeze(np.cumsum(indptr, out=indptr))
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
    """Sum of weights over stored edges (each unordered edge once)."""
    return float(g.edge_w.sum())


@dataclass(frozen=True, eq=False)
class GraphSignal:
    """Per-node feature rows, optionally backed by class labels.

    ``labels`` is present exactly when the rows are one-hot class
    encodings; consistency between rows and labels is enforced.
    """

    rows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("signal rows must be a 2-d array")
        object.__setattr__(self, "rows", _freeze(rows))
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise ValueError("labels must align with signal rows")
            expected = np.zeros_like(rows)
            expected[np.arange(len(labels)), labels] = 1.0
            if not np.array_equal(rows, expected):
                raise ValueError("rows are not one-hot encodings of the labels")
            object.__setattr__(self, "labels", _freeze(labels))

    @classmethod
    def from_labels(cls, labels, class_count: int) -> "GraphSignal":
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) and (labels.min() < 0 or labels.max() >= class_count):
            raise ValueError(f"class id out of range [0, {class_count})")
        rows = np.zeros((len(labels), class_count))
        rows[np.arange(len(labels)), labels] = 1.0
        return cls(rows, labels)

    @property
    def node_count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


# -- text formats ----------------------------------------------------------
#
# Edge list: UTF-8, whitespace-separated "i j" or "i j w", '#' comments.
# Labels:    one "node_id class_id" per line, every node exactly once.
#
# Line k of a text is its k-th "\n"-separated piece, and whitespace is
# what str.isspace() says, as for str.split(). A text is read once and
# parsed in one pass over arrays. Comments are cut, and numpy finds the
# bytes of every field and the fields of each row, a line that holds
# any. Ids of 1 to 18 ASCII digits are read from their bytes; every
# other id goes through int() and every weight through float(), so the
# accepted syntax is Python's. Each check a line must pass is a mask
# over the rows, and an error names the first row that fails one.

_COMMENT = re.compile("#[^\n]*")
_SPACE_BUT_NEWLINE = re.compile(r"[^\S\n]")   # for str patterns \s is str.isspace()
_SPACE = np.array([c < 128 and chr(c).isspace() for c in range(256)])   # by UTF-8 byte


def _read(source) -> str:
    """The text of a path, or of an iterable of lines, each given its
    ``"\\n"``. A file that is not UTF-8 raises UnicodeDecodeError at the
    byte offset of its first bad byte."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return "".join(line if line.endswith("\n") else line + "\n" for line in source)


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
    field f spans ``b[first[f]:end[f]]``, fields in text order. Row r is
    line ``line[r]`` (0-based) of ``text`` and holds ``count[r]`` fields
    from field ``start[r]`` on.
    """

    text: str
    b: np.ndarray
    first: np.ndarray
    end: np.ndarray
    line: np.ndarray
    start: np.ndarray
    count: np.ndarray

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

    def raw(self, r: int) -> str:
        """Row r's line as the text holds it, comment included, stripped."""
        k = int(self.line[r])
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


def _field_table(text: str) -> _FieldTable:
    bare = _COMMENT.sub("", text) if "#" in text else text
    if not bare.isascii():
        bare = _SPACE_BUT_NEWLINE.sub(" ", bare)
    b = np.frombuffer((bare + " ").encode("utf-8", "surrogatepass"), dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(_SPACE.take(b), prepend=True))   # b ends in a space
    first, end = bounds[0::2], bounds[1::2]
    per_line = np.diff(np.searchsorted(first, np.flatnonzero(b == 10)), prepend=0, append=len(first))
    line = np.flatnonzero(per_line)
    count = per_line[line]
    return _FieldTable(text, b, first, end, line, np.cumsum(count) - count, count)


def _edge_columns(t: _FieldTable):
    """``(i, j, w, max_id, line)`` of an edge list, ``line`` the first to hold
    ``max_id`` (1-based); raises EdgeListError naming the first bad line."""
    i, i_ok = t.ints(t.field(0))
    j, j_ok = t.ints(t.field(1))
    w, w_ok = np.ones(len(i)), np.ones(len(i), dtype=bool)
    weighted = np.flatnonzero(t.count == 3)
    w[weighted], w_ok[weighted] = _convert(float, t.tokens(t.start[weighted] + 2), np.float64)
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
    i, j, w, max_id, line = _edge_columns(_field_table(_read(source)))
    if labelled is not None and max_id >= labelled:
        raise UnlabelledNodeError(
            f"edge endpoint node {max_id} has no label: the label file names {labelled} nodes")
    if labelled is None and max_id >= UNLABELLED_NODE_LIMIT:
        raise EdgeListError(
            f"line {line}: node id {max_id} exceeds {UNLABELLED_NODE_LIMIT - 1}, "
            "the largest id an edge list may hold without labels; "
            "give --labels so the label file sets the node count")
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
    """The one-hot GraphSignal of a label file's field table; raises
    LabelError naming the first bad line, or the first unlabelled node."""
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
    """Parse "node_id class_id" lines into a one-hot GraphSignal.

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
    count = raw["class_count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"manifest field 'class_count' is not an integer >= 1: {count!r}")
    g, s = load_labelled(path.parent / raw["edge_file"], path.parent / raw["label_file"], count)
    return g, s, str(raw["name"])
