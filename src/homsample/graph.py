"""Immutable graph and node-signal containers with text-format ingestion.

Graphs are undirected and weighted, over dense 0-based node ids. Each
unordered edge is stored exactly once with ``i < j``; weights are strictly
positive and finite (a zero-weight pair is a non-edge). A CSR adjacency
over both directions supports O(deg) traversal. The edge and adjacency
arrays are frozen at construction; the only state that changes later is
the per-instance shortest-path cache, which :mod:`homsample.shortest_paths`
and :mod:`homsample.inclusion` keep within a fixed byte budget: source ->
DAG (``_sp_cache``), the edge betweenness (``_betweenness``) and the bytes
both hold (``_sp_cache_bytes``).

Edge lists and label files are read once and parsed in bulk with numpy;
a text the bulk pass cannot vouch for goes to a per-line parser, which
gives the same graph or names the first bad line (see "text formats"
below)."""

from __future__ import annotations

import json
import math
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
        "_indptr", "_nbr", "_nbr_w", "_nbr_eid", "_sp_cache", "_sp_cache_bytes", "_betweenness",
    )

    def __init__(self, node_count, edge_i, edge_j, edge_w):
        self.node_count = int(node_count)
        # own copies: freezing must not flip writability of caller arrays
        self.edge_i = _freeze(np.array(edge_i, dtype=np.int64))
        self.edge_j = _freeze(np.array(edge_j, dtype=np.int64))
        self.edge_w = _freeze(np.array(edge_w, dtype=np.float64))
        self._build_adjacency()
        self._sp_cache = {}
        self._sp_cache_bytes = 0
        self._betweenness = None

    @classmethod
    def from_arrays(cls, node_count, i, j, w=None) -> "Graph":
        """Canonicalize raw endpoint arrays into a Graph.

        Reversed duplicates merge by summing weights; pairs whose merged
        weight is zero are dropped. Raises on self-loops, out-of-range ids
        and negative or non-finite weights.
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
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        w = w[order]
        uniq, start = np.unique(key, return_index=True)
        wsum = np.add.reduceat(w, start) if len(w) else w
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

    def _build_adjacency(self):
        n, m = self.node_count, len(self.edge_i)
        src = np.concatenate([self.edge_i, self.edge_j])
        dst = np.concatenate([self.edge_j, self.edge_i])
        wgt = np.concatenate([self.edge_w, self.edge_w])
        eid = np.concatenate([np.arange(m), np.arange(m)])
        order = np.argsort(src, kind="stable")
        self._indptr = _freeze(np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=n))]).astype(np.int64))
        self._nbr = _freeze(dst[order])
        self._nbr_w = _freeze(wgt[order])
        self._nbr_eid = _freeze(eid[order])

    # -- basic queries -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_i)

    def neighbors(self, v: int) -> np.ndarray:
        return self._nbr[self._indptr[v]:self._indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every node."""
        return np.diff(self._indptr)

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
# A text is read once and parsed in bulk. Comments are cut, and numpy
# finds every field's bytes and counts the fields of each line. When all
# non-blank lines hold the same number of fields, id columns are read
# from their digits, weights by float() on the column alone, and the
# checks run on whole arrays. Where the bulk pass cannot vouch for a text
# (non-ASCII characters outside comments, lines of differing field
# counts, an id that is not plain digits, a weight float() refuses, a
# failed check), the per-line parser reads the same lines and gives its
# result or names the first bad line. So the bulk pass accepts only what
# the per-line parser accepts, with the same numbers.

_COMMENT = re.compile("#[^\n]*")
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])


def _file_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        yield from fh


def _read(source):
    """Read a path or an iterable of lines once.

    Returns the text, whose ``"\\n"``-separated pieces are the source's
    lines, or else the lines themselves: for a file that is not UTF-8
    (the per-line parser then meets the decoding error where it always
    did) and for line items that are not strings each ending in their
    only newline.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError:
            return _file_lines(source)
    lines = list(source)
    try:
        text = "".join(lines)
    except TypeError:
        return lines
    if (all(line[-1:] == "\n" for line in lines[:-1])
            and text.count("\n") == len(lines) - 1 + text.endswith("\n")):
        return text
    return lines


def _lines(text):
    """The lines of what :func:`_read` returned."""
    return text.split("\n") if isinstance(text, str) else text


@dataclass(frozen=True, eq=False)
class _FieldTable:
    """The fields of a text whose non-blank lines all hold k of them.

    ``b`` is the text without comments as ASCII bytes, with one byte of
    whitespace appended; field f spans ``b[first[f]:end[f]]``, fields in
    text order, so column c holds fields c, c + k, c + 2k, ...
    """

    b: np.ndarray
    first: np.ndarray
    end: np.ndarray
    k: int

    def ints(self, c: int) -> np.ndarray | None:
        """Column c as int64 if every field in it is 1 to 18 ASCII digits,
        which int() reads alike and int64 holds; else None."""
        first = self.first[c::self.k]
        width = self.end[c::self.k] - first
        if width.max() > 18:
            return None
        value = np.zeros(len(first), dtype=np.int64)
        for d in range(int(width.max())):
            live = width > d
            digit = self.b[np.where(live, first + d, 0)] - np.uint8(48)
            if np.any(live & (digit > 9)):
                return None
            value = np.where(live, value * 10 + digit, value)
        return value

    def floats(self, c: int) -> np.ndarray:
        """Column c read by float(); raises ValueError where float() does."""
        first = self.first[c::self.k]
        width = self.end[c::self.k] - first + 1   # each field and the byte after it
        at = np.repeat(first - np.cumsum(width) + width, width) + np.arange(width.sum())
        tokens = self.b[at].tobytes().decode("ascii").split()
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


def _field_table(text) -> _FieldTable | None:
    """Field table of a text, or None for non-ASCII text outside comments,
    text with no fields, lines of differing field counts, or input that
    is not a text at all."""
    if not isinstance(text, str):
        return None
    if "#" in text:
        text = _COMMENT.sub("", text)
    if not text.isascii():
        return None
    b = np.frombuffer((text + " ").encode("ascii"), dtype=np.uint8)
    space = _ASCII_SPACE.take(b)
    first = np.flatnonzero(~space[1:] & space[:-1]) + 1
    if not space[0]:
        first = np.concatenate(([0], first))
    if not len(first):
        return None
    fields_before = np.searchsorted(first, np.flatnonzero(b == 10))   # at each line end
    per_line = np.diff(fields_before, prepend=0, append=len(first))
    k = int(per_line.max())
    if np.any((per_line != k) & (per_line != 0)):
        return None
    end = np.flatnonzero(~space[:-1] & space[1:]) + 1
    return _FieldTable(b, first, end, k)


def _edge_columns(text):
    """Bulk parse of an edge list: ``(i, j, w, max_id)`` arrays, or None
    where the per-line parser must judge the text."""
    table = _field_table(text)
    if table is None or table.k not in (2, 3):
        return None
    i, j = table.ints(0), table.ints(1)
    if i is None or j is None:
        return None
    try:
        w = table.floats(2) if table.k == 3 else np.ones(len(i))
    except ValueError:
        return None
    if np.any(i == j) or not np.all(np.isfinite(w)) or np.any(w < 0):
        return None
    return i, j, w, int(max(i.max(), j.max()))


def _edge_rows(lines):
    """Per-line parse of an edge list: ``(i, j, w, max_id)`` lists.

    Raises EdgeListError naming the first bad line.
    """
    ii, jj, ww = [], [], []
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'i j' or 'i j w', got {raw.strip()!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise EdgeListError(f"line {lineno}: not numeric: {raw.strip()!r}") from None
        if i < 0 or j < 0:
            raise EdgeListError(f"line {lineno}: negative node id")
        if i == j:
            raise EdgeListError(f"line {lineno}: self-loop at node {i}")
        if not math.isfinite(w):
            raise EdgeListError(f"line {lineno}: non-finite weight {w}")
        if w < 0:
            raise EdgeListError(f"line {lineno}: negative weight {w}")
        ii.append(i)
        jj.append(j)
        ww.append(w)
        max_id = max(max_id, i, j)
    return ii, jj, ww, max_id


def load_edge_list(source, n_hint: int | None = None, labelled: int | None = None) -> Graph:
    """Parse an edge-list text stream or path into a canonical Graph.

    Duplicate ``(i, j)`` / ``(j, i)`` lines merge by summing weights.
    ``node_count`` is ``max id + 1``, or ``n_hint`` if larger. With
    ``labelled``, the number of nodes a label file names, an endpoint at
    or above it raises UnlabelledNodeError before any array sized by the
    node count is built. A malformed line raises EdgeListError naming
    the first bad line.
    """
    text = _read(source)
    columns = _edge_columns(text)
    i, j, w, max_id = columns if columns is not None else _edge_rows(_lines(text))
    if labelled is not None and max_id >= labelled:
        raise UnlabelledNodeError(
            f"edge endpoint node {max_id} has no label: the label file names {labelled} nodes")
    n = max(max_id + 1, n_hint or 0)
    return Graph.from_arrays(n, i, j, w)


def dump_edge_list(g: Graph) -> str:
    """Edge-list text of g's edges, one ``i j w`` line each.

    ``load_edge_list(text, n_hint=g.node_count)`` reloads an identical
    Graph. The text itself does not record the node count, so without
    ``n_hint`` isolated nodes above the largest endpoint id are lost.
    """
    return "".join(f"{i} {j} {w!r}\n" for i, j, w in
                   zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()))


def _read_labels(source):
    """Read and split a label file once: ``(text, table)`` for
    :func:`_named_nodes` and :func:`_label_signal`."""
    text = _read(source)
    return text, _field_table(text)


def _named_nodes(text, table) -> int:
    """Number of nodes a label file names: its lines that are not blank or
    comments. A file that is not UTF-8 raises here."""
    if table is not None:
        return len(table.first) // table.k
    return sum(1 for raw in _lines(text) if raw.split("#", 1)[0].strip())


def _label_signal(text, table, class_count: int, n: int) -> GraphSignal:
    """The one-hot GraphSignal of a label file read by :func:`_read_labels`."""
    labels = _label_columns(table, class_count, n)
    if labels is None:
        labels = _label_rows(_lines(text), class_count, n)
    return GraphSignal.from_labels(labels, class_count)


def _label_columns(table, class_count: int, n: int):
    """Bulk parse of a complete label file: the label array, or None where
    the per-line parser must judge the text."""
    if table is None or table.k != 2:
        return None
    node, cls = table.ints(0), table.ints(1)
    if (node is None or cls is None or len(node) != n
            or node.max() >= n or cls.max() >= class_count):
        return None
    labels = np.full(n, -1, dtype=np.int64)
    labels[node] = cls
    return None if np.any(labels < 0) else labels   # n rows, so a gap means a duplicate


def _label_rows(lines, class_count: int, n: int) -> np.ndarray:
    """Per-line parse of a label file; raises LabelError naming the first bad line."""
    labels = np.full(n, -1, dtype=np.int64)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise LabelError(f"line {lineno}: expected 'node_id class_id'")
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise LabelError(f"line {lineno}: not numeric: {raw.strip()!r}") from None
        if not 0 <= node < n:
            raise LabelError(f"line {lineno}: node {node} out of range [0, {n})")
        if not 0 <= cls < class_count:
            raise LabelError(f"line {lineno}: class {cls} out of range [0, {class_count})")
        if labels[node] != -1:
            raise LabelError(f"line {lineno}: duplicate node {node}")
        labels[node] = cls
    missing = np.nonzero(labels == -1)[0]
    if len(missing):
        raise LabelError(f"missing label for node {missing[0]}")
    return labels


def load_labels(source, class_count: int, n: int) -> GraphSignal:
    """Parse "node_id class_id" lines into a one-hot GraphSignal.

    Every node in ``[0, n)`` must appear exactly once; a malformed line
    raises LabelError naming the first bad line.
    """
    return _label_signal(*_read_labels(source), class_count, n)


def load_labelled(edge_source, label_source, class_count: int) -> tuple[Graph, GraphSignal]:
    """Load an edge list and the label file that names its nodes.

    The label file names every node once, so its line count sizes the
    graph; isolated nodes absent from the edge list are kept, and an
    edge endpoint beyond the labelled nodes raises UnlabelledNodeError
    before any array sized by the node count is built. The label file is
    read and parsed once.
    """
    labels = _read_labels(label_source)
    labelled = _named_nodes(*labels)
    g = load_edge_list(edge_source, n_hint=labelled, labelled=labelled)
    return g, _label_signal(*labels, class_count, g.node_count)


@dataclass(frozen=True)
class DatasetManifest:
    """Pointer to an on-disk dataset: edge file, label file, class count."""

    name: str
    edge_file: Path
    label_file: Path
    class_count: int

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for field in ("name", "edge_file", "label_file", "class_count"):
            if field not in raw:
                raise ValueError(f"manifest missing field {field!r}")
        base = path.parent
        return cls(
            name=str(raw["name"]),
            edge_file=base / raw["edge_file"],
            label_file=base / raw["label_file"],
            class_count=int(raw["class_count"]),
        )

    def load_dataset(self) -> tuple[Graph, GraphSignal]:
        """Load the graph and its labels (see :func:`load_labelled`)."""
        return load_labelled(self.edge_file, self.label_file, self.class_count)


def karate_manifest_path() -> Path:
    """Path to the bundled weighted karate-club fixture manifest."""
    return Path(__file__).parent / "data" / "karate.json"


def load_dataset(manifest_path) -> tuple[Graph, GraphSignal, str]:
    m = DatasetManifest.load(manifest_path)
    g, s = m.load_dataset()
    return g, s, m.name
