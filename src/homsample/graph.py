"""Immutable graph and node-signal containers with text-format ingestion.

Graphs are undirected and weighted, over dense 0-based node ids. Each
unordered edge is stored exactly once with ``i < j``; weights are strictly
positive and finite (a zero-weight pair is a non-edge). A CSR adjacency
over both directions supports O(deg) traversal. The edge and adjacency
arrays are frozen at construction; the only state that changes later is
the per-instance shortest-path cache (``_sp_cache``).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list input; message carries the 1-based line number."""


class LabelError(ValueError):
    """Malformed or incomplete label input."""


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
        "_indptr", "_nbr", "_nbr_w", "_nbr_eid", "_edge_key", "_sp_cache",
    )

    def __init__(self, node_count, edge_i, edge_j, edge_w):
        self.node_count = int(node_count)
        # own copies: freezing must not flip writability of caller arrays
        self.edge_i = _freeze(np.array(edge_i, dtype=np.int64))
        self.edge_j = _freeze(np.array(edge_j, dtype=np.int64))
        self.edge_w = _freeze(np.array(edge_w, dtype=np.float64))
        # lookup key for edge_id(); edges are sorted so the key is too
        self._edge_key = _freeze(self.edge_i * self.node_count + self.edge_j)
        self._build_adjacency()
        self._sp_cache = {}

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

    def edge_id(self, u: int, v: int) -> int:
        """Index of the stored edge {u, v}; raises KeyError if absent."""
        ids = self.edge_ids_for([u], [v])
        return int(ids[0])

    def edge_ids_for(self, us, vs) -> np.ndarray:
        """Vectorized edge lookup for endpoint arrays."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if len(self._edge_key) == 0:
            if len(us):
                raise KeyError(f"no such edge ({us[0]}, {vs[0]})")
            return np.empty(0, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        key = lo * self.node_count + hi
        pos = np.searchsorted(self._edge_key, key)
        ok = (pos < len(self._edge_key)) & (self._edge_key[np.minimum(pos, len(self._edge_key) - 1)] == key)
        if not np.all(ok):
            bad = np.argmin(ok)
            raise KeyError(f"no such edge ({us[bad]}, {vs[bad]})")
        return pos

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = (u, v) if u < v else (v, u)
        key = lo * self.node_count + hi
        pos = np.searchsorted(self._edge_key, key)
        return bool(pos < len(self._edge_key) and self._edge_key[pos] == key)

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


def _as_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    else:
        yield from enumerate(source, start=1)


def load_edge_list(source, n_hint: int | None = None) -> Graph:
    """Parse an edge-list text stream or path into a canonical Graph.

    Duplicate ``(i, j)`` / ``(j, i)`` lines merge by summing weights.
    ``node_count`` is ``max id + 1``, or ``n_hint`` if larger.
    """
    ii, jj, ww = [], [], []
    max_id = -1
    for lineno, raw in _as_lines(source):
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
    n = max(max_id + 1, n_hint or 0)
    return Graph.from_arrays(n, ii, jj, ww)


def dump_edge_list(g: Graph) -> str:
    """Edge-list text of g's edges, one ``i j w`` line each.

    ``load_edge_list(text, n_hint=g.node_count)`` reloads an identical
    Graph. The text itself does not record the node count, so without
    ``n_hint`` isolated nodes above the largest endpoint id are lost.
    """
    buf = io.StringIO()
    for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w):
        buf.write(f"{i} {j} {float(w)!r}\n")
    return buf.getvalue()


def load_labels(source, class_count: int, n: int) -> GraphSignal:
    """Parse "node_id class_id" lines into a one-hot GraphSignal.

    Every node in ``[0, n)`` must appear exactly once.
    """
    labels = np.full(n, -1, dtype=np.int64)
    for lineno, raw in _as_lines(source):
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
    return GraphSignal.from_labels(labels, class_count)


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
        """Load the graph and its labels.

        The label file names every node once, so its line count sizes the
        graph; isolated nodes absent from the edge list are kept.
        """
        labelled = sum(1 for _, raw in _as_lines(self.label_file) if raw.split("#", 1)[0].strip())
        g = load_edge_list(self.edge_file, n_hint=labelled)
        s = load_labels(self.label_file, self.class_count, g.node_count)
        return g, s


def karate_manifest_path() -> Path:
    """Path to the bundled weighted karate-club fixture manifest."""
    return Path(__file__).parent / "data" / "karate.json"


def load_dataset(manifest_path) -> tuple[Graph, GraphSignal, str]:
    m = DatasetManifest.load(manifest_path)
    g, s = m.load_dataset()
    return g, s, m.name
