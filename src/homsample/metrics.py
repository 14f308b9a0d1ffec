"""Exact full-graph homophily metrics.

The smoothness measure is the edge total of squared feature deviations,
``sum over edges of w_ij * ||x_i - x_j||^2``; its [0, 1] normalization
divides by twice the total edge weight, which for one-hot signals equals
the heterophilous fraction of edge weight (so that normalized energy and
edge homophily sum to one exactly).

Node homophily follows the usual benchmark convention: the mean, over
nodes with at least one neighbor, of the fraction of *neighbors* (counts,
not weights) sharing the node's label. On unweighted graphs this agrees
with the weighted fraction; on weighted graphs the count convention is
what published benchmark tables use.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, GraphSignal, total_edge_weight

DIRICHLET_TOTAL = "dirichlet_total"
DIRICHLET_NORMALIZED = "dirichlet_normalized"
EDGE_HOMOPHILY = "edge_homophily"
NODE_HOMOPHILY = "node_homophily"
METRIC_KINDS = (DIRICHLET_TOTAL, DIRICHLET_NORMALIZED, EDGE_HOMOPHILY, NODE_HOMOPHILY)


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
    d = s.rows[i] - s.rows[j]
    return w * np.einsum("ef,ef->e", d, d)


def same_label_weight_values(g: Graph, s: GraphSignal, edge_ids=None) -> np.ndarray:
    """Per-edge ``w_ij * 1{label_i == label_j}``, over g's edges or ``edge_ids``; requires labels."""
    _check_dims(g, s)
    labels = _labels(s)
    i, j, w = _edges(g, edge_ids)
    return w * (labels[i] == labels[j])


def node_sums(i: np.ndarray, j: np.ndarray, values: np.ndarray):
    """Per-endpoint sums of ``values`` and edge counts over the edges (i, j), in node order.

    One entry per node that ends at least one of the edges. A bincount over
    the endpoint ids adds each node's values in input order, so no sort is
    needed; its arrays span ids up to the largest endpoint.
    """
    ends = np.concatenate([i, j])
    counts = np.bincount(ends)
    keep = counts > 0
    return np.bincount(ends, weights=np.concatenate([values, values]))[keep], counts[keep]


def node_mean_ratio(i: np.ndarray, j: np.ndarray, values: np.ndarray) -> float:
    """Mean over the endpoints of the edges (i, j) of their value sum per edge count."""
    sums, counts = node_sums(i, j, values)
    return float(np.mean(sums / counts))


def same_label_values(g: Graph, s: GraphSignal, edge_ids=None) -> np.ndarray:
    """Per-edge ``1.0`` where the endpoints share a label, else ``0.0``, over g's
    edges or ``edge_ids``; requires labels."""
    _check_dims(g, s)
    labels = _labels(s)
    i, j, _ = _edges(g, edge_ids)
    return (labels[i] == labels[j]).astype(np.float64)


# An edge metric is a total of per-edge values, which a ratio divides by a multiple
# of the total edge weight: kind -> (per-edge kernel, scale), scale None for a
# plain total. The exact metrics and the estimators both read this table.
EDGE_METRICS = {
    DIRICHLET_TOTAL: (edge_variation_values, None),
    DIRICHLET_NORMALIZED: (edge_variation_values, 2.0),
    EDGE_HOMOPHILY: (same_label_weight_values, 1.0),
}


def _edge_metric(g: Graph, s: GraphSignal, kind: str) -> float:
    kernel, scale = EDGE_METRICS[kind]
    den = 1.0 if scale is None else scale * total_edge_weight(g)
    if den <= 0:
        raise ValueError("graph has no edges")
    return float(kernel(g, s).sum()) / den


def dirichlet_energy(g: Graph, s: GraphSignal) -> float:
    """Total squared variation over edges (each unordered edge once)."""
    return _edge_metric(g, s, DIRICHLET_TOTAL)


def normalized_dirichlet(g: Graph, s: GraphSignal) -> float:
    """Dirichlet energy divided by twice the total edge weight; in [0, 1] for one-hot signals."""
    if s.labels is None:
        raise ValueError("normalized energy is defined for one-hot signals")
    return _edge_metric(g, s, DIRICHLET_NORMALIZED)


def edge_homophily(g: Graph, s: GraphSignal) -> float:
    """Fraction of edge weight joining same-label endpoints."""
    return _edge_metric(g, s, EDGE_HOMOPHILY)


def node_homophily(g: Graph, s: GraphSignal, edge_ids=None) -> float:
    """Mean same-label neighbor fraction over nodes with degree >= 1.

    With ``edge_ids`` the neighbors and degrees are those of the subgraph
    formed by that edge subset.
    """
    same = same_label_values(g, s, edge_ids)
    i, j, _ = _edges(g, edge_ids)
    if not len(i):
        raise ValueError("graph has no edges")
    # only endpoints of the given edges have degree >= 1
    return node_mean_ratio(i, j, same)


_EXACT = {
    DIRICHLET_TOTAL: dirichlet_energy,
    DIRICHLET_NORMALIZED: normalized_dirichlet,
    EDGE_HOMOPHILY: edge_homophily,
    NODE_HOMOPHILY: node_homophily,
}


def exact_metric(g: Graph, s: GraphSignal, kind: str) -> float:
    try:
        fn = _EXACT[kind]
    except KeyError:
        raise ValueError(f"unknown metric kind {kind!r}") from None
    return fn(g, s)


def homophily_profile(g: Graph, s: GraphSignal) -> dict:
    """All four exact metrics by kind, in the order of METRIC_KINDS."""
    return {k: exact_metric(g, s, k) for k in METRIC_KINDS}
