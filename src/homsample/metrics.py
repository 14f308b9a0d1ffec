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


def dirichlet_energy(g: Graph, s: GraphSignal) -> float:
    """Total squared variation over edges (each unordered edge once)."""
    return float(edge_variation_values(g, s).sum())


def normalized_dirichlet(g: Graph, s: GraphSignal) -> float:
    """Dirichlet energy divided by twice the total edge weight; in [0, 1] for one-hot signals."""
    if s.labels is None:
        raise ValueError("normalized energy is defined for one-hot signals")
    w = total_edge_weight(g)
    if w <= 0:
        raise ValueError("graph has no edges")
    return dirichlet_energy(g, s) / (2.0 * w)


def edge_homophily(g: Graph, s: GraphSignal) -> float:
    """Fraction of edge weight joining same-label endpoints."""
    w = total_edge_weight(g)
    if w <= 0:
        raise ValueError("graph has no edges")
    return float(same_label_weight_values(g, s).sum() / w)


def node_homophily(g: Graph, s: GraphSignal, edge_ids=None) -> float:
    """Mean same-label neighbor fraction over nodes with degree >= 1.

    With ``edge_ids`` the neighbors and degrees are those of the subgraph
    formed by that edge subset.
    """
    _check_dims(g, s)
    labels = _labels(s)
    i, j, _ = _edges(g, edge_ids)
    if not len(i):
        raise ValueError("graph has no edges")
    match = (labels[i] == labels[j]).astype(np.float64)
    # only endpoints of the given edges have degree >= 1; inverse ids keep node order
    _, node = np.unique(np.concatenate([i, j]), return_inverse=True)
    same = np.bincount(node, weights=np.concatenate([match, match]))
    return float(np.mean(same / np.bincount(node)))


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
