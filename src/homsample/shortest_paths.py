"""Hop-count shortest-path machinery shared by traceroute sampling and
edge betweenness: single-source BFS DAGs with path counts, and uniform
random draws from the set of shortest paths.

A DAG is built by a level-synchronous BFS over the graph's CSR arrays:
each frontier is expanded at once, new nodes are numbered in the order
the node-at-a-time BFS would discover them, and path counts are summed
in that BFS's order, so every count is bitwise the one it computes. The
DAG is a handful of flat arrays, with no per-node Python objects.

Path counts are kept as floats; only their ratios are ever used. DAGs are
rng-free, so they are cached on the graph and reused across replications
without affecting reproducibility. The cache is bounded in bytes: past
the budget, new DAGs are computed and not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graph import Graph

# per-graph budget for cached DAGs, counted by the bytes of their arrays
_CACHE_BYTES = 128 << 20


@dataclass(eq=False, slots=True)
class PathDag:
    """BFS shortest-path DAG from one source, as flat arrays.

    ``order`` lists the reached nodes in BFS order and
    ``order[levels[d]:levels[d + 1]]`` are those at distance d. The
    predecessors of node v on shortest paths are
    ``pred[pred_lo[v]:pred_hi[v]]``, in BFS order, with the matching edge
    ids in ``pred_eid``. The groups are laid out in BFS order of v, so
    each level's predecessors are one contiguous slice.
    """

    source: int
    dist: np.ndarray
    sigma: np.ndarray
    order: np.ndarray
    levels: np.ndarray
    pred_lo: np.ndarray
    pred_hi: np.ndarray
    pred: np.ndarray
    pred_eid: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by the DAG's arrays, which the cache budget counts."""
        return sum(getattr(self, f.name).nbytes for f in fields(self)[1:])


def path_dag(g: Graph, source: int) -> PathDag:
    """Shortest-path DAG from ``source``, cached on the graph."""
    cached = g._sp_cache.get(source)
    if cached is not None:
        return cached
    dag = _bfs_dag(g, source)
    if g._sp_cache_bytes + dag.nbytes <= _CACHE_BYTES:
        g._sp_cache_bytes += dag.nbytes
        g._sp_cache[source] = dag
    return dag


def _bfs_dag(g: Graph, source: int) -> PathDag:
    n = g.node_count
    indptr, nbr, nbr_eid = g._indptr, g._nbr, g._nbr_eid
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    pred_lo = np.zeros(n, dtype=np.int64)
    pred_hi = np.zeros(n, dtype=np.int64)
    dist[source] = 0
    sigma[source] = 1.0
    degree = g.degrees()
    frontier = np.array([source], dtype=np.int64)
    # first[w]: position, among its level's arcs, of the first arc that reaches w
    first = np.full(n, len(nbr), dtype=np.int64)
    order, preds, eids = [frontier], [], []
    depth, stored = 0, 0
    while True:
        # every arc out of the frontier, in the order the node-at-a-time BFS scans them
        deg = degree[frontier]
        end = deg.cumsum()
        arc = np.arange(end[-1]) + (indptr[frontier] - end + deg).repeat(deg)
        w = nbr[arc]
        fresh = (dist[w] < 0).nonzero()[0]
        if not len(fresh):
            break
        v, w, arc = frontier.repeat(deg)[fresh], w[fresh], arc[fresh]
        # group the arcs by target in first-discovery order; a stable sort keeps
        # each group's predecessors in BFS order
        np.minimum.at(first, w, fresh)
        grouped = first[w].argsort(kind="stable")
        v, w, e = v[grouped], w[grouped], nbr_eid[arc[grouped]]
        bound = np.concatenate([[0], (w[1:] != w[:-1]).nonzero()[0] + 1, [len(w)]])
        frontier = w[bound[:-1]]
        depth += 1
        dist[frontier] = depth
        np.add.at(sigma, w, sigma[v])
        pred_lo[frontier] = stored + bound[:-1]
        pred_hi[frontier] = stored + bound[1:]
        order.append(frontier)
        preds.append(v)
        eids.append(e)
        stored += len(w)
    levels = np.cumsum([0] + [len(level) for level in order])
    order = np.concatenate(order)
    pred = np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)
    pred_eid = np.concatenate(eids) if eids else np.empty(0, dtype=np.int64)
    return PathDag(source, dist, sigma, order, levels, pred_lo, pred_hi, pred, pred_eid)


def sample_path(dag: PathDag, t: int, rng) -> tuple[list[int], list[int]] | None:
    """Uniform draw from all shortest source-t paths.

    Returns ``(nodes, edge_ids)`` with nodes ordered source -> t, or None
    when t is unreachable. Backtracking picks each predecessor with
    probability proportional to its path count, which makes every complete
    shortest path equally likely. One ``rng.random()`` is drawn at each
    node with more than one predecessor, from t back to the source.
    """
    t = int(t)
    if dag.dist[t] < 0:
        return None
    nodes = [t]
    eids = []
    v = t
    sigma, pred_lo, pred_hi, pred, pred_eid = dag.sigma, dag.pred_lo, dag.pred_hi, dag.pred, dag.pred_eid
    while v != dag.source:
        k, last = pred_lo.item(v), pred_hi.item(v) - 1
        if k < last:
            # sigma[v] is the left-to-right sum of its predecessors' counts, so
            # the first running sum above r * sigma[v] picks in proportion
            r = rng.random() * sigma.item(v)
            total = sigma.item(pred.item(k))
            while total <= r and k < last:
                k += 1
                total += sigma.item(pred.item(k))
        eids.append(pred_eid.item(k))
        v = pred.item(k)
        nodes.append(v)
    nodes.reverse()
    eids.reverse()
    return nodes, eids
