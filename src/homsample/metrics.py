"""Exact full-graph homophily metrics.

The smoothness measure is the edge total of squared feature deviations,
``sum over edges of w_ij * ||x_i - x_j||^2``; its [0, 1] normalization
divides by twice the total edge weight, which for labelled signals equals
the heterophilous fraction of edge weight (so that normalized energy and
edge homophily sum to one exactly).

Node homophily follows the usual benchmark convention: the mean, over
nodes with at least one neighbor, of the fraction of *neighbors* (counts,
not weights) sharing the node's label. On unweighted graphs this agrees
with the weighted fraction; on weighted graphs the count convention is
what published benchmark tables use. Its per-node sums come from
:func:`node_sums`, which sums rows of edge subsets at once; the exact
metric is the one row of all edges, and the estimators pass a block of
samples (their plug-in node homophily and HT variance read it).

:data:`METRICS` is the one table of metric kinds: each kind's per-edge
kernel and scale, which :func:`exact_metric` and every estimator mode read.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, GraphSignal, total_edge_weight

DIRICHLET_TOTAL = "dirichlet_total"
DIRICHLET_NORMALIZED = "dirichlet_normalized"
EDGE_HOMOPHILY = "edge_homophily"
NODE_HOMOPHILY = "node_homophily"


def _check_dims(g: Graph, s: GraphSignal):
    if s.node_count != g.node_count:
        raise ValueError(f"signal has {s.node_count} rows for a {g.node_count}-node graph")


def _edges(g: Graph, edge_ids):
    """Endpoints and weights of all of g's edges, or of the subset ``edge_ids``."""
    if edge_ids is None:
        return g.edge_i, g.edge_j, g.edge_w
    return g.edge_i[edge_ids], g.edge_j[edge_ids], g.edge_w[edge_ids]


def _labels(s: GraphSignal) -> np.ndarray:
    if s.labels is None:
        raise ValueError("signal has no labels")
    return s.labels


def edge_variation_values(g: Graph, s: GraphSignal, edge_ids=None) -> np.ndarray:
    """Per-edge squared variation ``w_ij * ||x_i - x_j||^2``.

    Aligned with g's edges, or with ``edge_ids`` when given (a sampled
    subset, at a cost proportional to its size).
    """
    _check_dims(g, s)
    i, j, w = _edges(g, edge_ids)
    # a value past the largest float64 is inf, which exact_metric and the estimates refuse
    with np.errstate(over="ignore"):
        if s.labels is not None:
            # the one-hot rows of two labels differ in two unit entries or in none
            return w * (2.0 * (s.labels[i] != s.labels[j]))
        d = s.rows[i] - s.rows[j]
        return w * np.einsum("ef,ef->e", d, d)


def same_label_weight_values(g: Graph, s: GraphSignal, edge_ids=None) -> np.ndarray:
    """Per-edge ``w_ij * 1{label_i == label_j}``, over g's edges or ``edge_ids``; requires labels."""
    _check_dims(g, s)
    labels = _labels(s)
    i, j, w = _edges(g, edge_ids)
    return w * (labels[i] == labels[j])


def node_sums(g: Graph, edge_ids: np.ndarray, lengths, values: np.ndarray):
    """Per-endpoint sums of ``values`` and edge counts over rows of g's edges.

    Row r holds the next ``lengths[r]`` of ``edge_ids``, with their
    ``values``. Returns the sums and counts of every row's endpoints, rows
    in order and nodes in node order within a row, and each row's number of
    endpoints. One bincount over ``row * n + node`` adds each row's values
    at a node in input order, so no sort is needed and a row's sums have
    the bits they have alone.
    """
    n, rows, k = g.node_count, len(lengths), len(edge_ids)
    base = np.repeat(np.arange(rows) * n, lengths)
    ends = np.empty(2 * k, dtype=np.int64)
    for half, endpoint in ((ends[:k], g.edge_i), (ends[k:], g.edge_j)):
        np.take(endpoint, edge_ids, out=half)
        half += base
    counts = np.bincount(ends, minlength=rows * n)
    keep = counts > 0
    sums = np.bincount(ends, weights=np.concatenate([values, values]), minlength=rows * n)
    return sums[keep], counts[keep], keep.reshape(rows, n).sum(axis=1)


def same_label_values(g: Graph, s: GraphSignal, edge_ids=None) -> np.ndarray:
    """Per-edge ``1.0`` where the endpoints share a label, else ``0.0``, over g's
    edges or ``edge_ids``; requires labels."""
    _check_dims(g, s)
    labels = _labels(s)
    i, j, _ = _edges(g, edge_ids)
    return (labels[i] == labels[j]).astype(np.float64)


# Every metric kind: kind -> (per-edge kernel, scale). An edge metric is a total
# of its kernel's values, which a ratio divides by scale times the total edge
# weight (scale None for a plain total); node homophily averages its same-label
# indicator per node.
METRICS = {
    DIRICHLET_TOTAL: (edge_variation_values, None),
    DIRICHLET_NORMALIZED: (edge_variation_values, 2.0),
    EDGE_HOMOPHILY: (same_label_weight_values, 1.0),
    NODE_HOMOPHILY: (same_label_values, None),
}
METRIC_KINDS = tuple(METRICS)


def checked_total_weight(g: Graph, kind: str) -> float:
    """The total edge weight of ``g``, unless its weights sum past the largest
    float64: no edge metric of that graph is exact, so ``kind`` is refused."""
    total = total_edge_weight(g)
    if not math.isfinite(total):
        raise ValueError(f"{kind} is undefined: the total edge weight overflows float64 ({total})")
    return total


def check_signal(kind: str, s: GraphSignal):
    """Refuse metric ``kind`` of a signal it is not defined for: normalized
    energy is defined for labelled signals only."""
    if kind == DIRICHLET_NORMALIZED and s.labels is None:
        raise ValueError("normalized energy is defined for labelled signals")


def _edge_metric(g: Graph, s: GraphSignal, kind: str) -> float:
    check_signal(kind, s)
    kernel, scale = METRICS[kind]
    total = checked_total_weight(g, kind)
    den = 1.0 if scale is None else scale * total
    if den <= 0:
        raise ValueError("graph has no edges")
    return float(kernel(g, s).sum()) / den


def dirichlet_energy(g: Graph, s: GraphSignal) -> float:
    """Total squared variation over edges (each unordered edge once)."""
    return _edge_metric(g, s, DIRICHLET_TOTAL)


def normalized_dirichlet(g: Graph, s: GraphSignal) -> float:
    """Dirichlet energy divided by twice the total edge weight; in [0, 1] for labelled signals."""
    return _edge_metric(g, s, DIRICHLET_NORMALIZED)


def edge_homophily(g: Graph, s: GraphSignal) -> float:
    """Fraction of edge weight joining same-label endpoints."""
    return _edge_metric(g, s, EDGE_HOMOPHILY)


def node_homophily(g: Graph, s: GraphSignal) -> float:
    """Mean same-label neighbor fraction over nodes with degree >= 1."""
    same = same_label_values(g, s)
    if not g.edge_count:
        raise ValueError("graph has no edges")
    # only endpoints of edges have degree >= 1
    sums, counts, _ = node_sums(g, np.arange(g.edge_count), [g.edge_count], same)
    return float(np.mean(sums / counts))


def exact_metric(g: Graph, s: GraphSignal, kind: str) -> float:
    """Metric ``kind`` of the full graph; a non-finite value is refused as json refuses it."""
    if kind not in METRICS:
        raise ValueError(f"unknown metric kind {kind!r}")
    value = node_homophily(g, s) if kind == NODE_HOMOPHILY else _edge_metric(g, s, kind)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return value


def homophily_profile(g: Graph, s: GraphSignal) -> dict:
    """All four exact metrics by kind, in the order of METRIC_KINDS."""
    return {k: exact_metric(g, s, k) for k in METRIC_KINDS}
