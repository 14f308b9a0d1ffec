"""Hop-count shortest-path machinery shared by traceroute sampling and
edge betweenness: single-source BFS DAGs with path counts, and uniform
random draws from the set of shortest paths, one target at a time
(``sample_path``) or every target of a source at once (``sample_paths``).

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


def _running_sums(dag: PathDag) -> np.ndarray:
    """Running sums of ``sigma[pred]`` within each predecessor group, aligned
    with ``dag.pred``.

    Entry k of a group adds its own count to entry k - 1's sum, one term at
    a time from the left as :func:`sample_path` adds them, so every sum is
    bitwise its running total. One pass per position in a group.
    """
    cum = dag.sigma[dag.pred]
    nodes = dag.order[1:]
    size = dag.pred_hi[nodes] - dag.pred_lo[nodes]
    pos = np.arange(len(cum)) - dag.pred_lo[nodes].repeat(size)
    by_pos = pos.argsort(kind="stable")
    bounds = np.bincount(pos).cumsum()
    for k in range(1, len(bounds)):
        at = by_pos[bounds[k - 1]:bounds[k]]
        cum[at] += cum[at - 1]
    return cum


def sample_paths(dag: PathDag, targets: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """One uniform shortest path from the source to each target, all at once.

    Returns ``(walker, edge_ids)``: entry k says that path ``walker[k]``
    (an index into ``targets``) runs over edge ``edge_ids[k]``. A target
    that is the source or is unreachable takes no step. The paths are walked
    back one BFS level at a time, deepest first. At each level, the walkers
    standing on a node with more than one predecessor draw one uniform
    each, in the order of ``targets``, and pick a predecessor by the same
    running sum over its path counts that :func:`sample_path` scans, so a
    given uniform gives the same pick.
    """
    sigma, pred, pred_lo, pred_hi, pred_eid = dag.sigma, dag.pred, dag.pred_lo, dag.pred_hi, dag.pred_eid
    cur = np.array(targets, dtype=np.int64)
    depth = dag.dist[cur]
    cum = _running_sums(dag)
    none = np.empty(0, dtype=np.int64)
    walkers, eids = [none], [none]
    for d in range(int(depth.max(initial=0)), 0, -1):
        at = (depth >= d).nonzero()[0]
        v = cur[at]
        k = pred_lo[v]
        count = pred_hi[v] - k
        multi = (count > 1).nonzero()[0]
        if len(multi):
            # pick the first running sum above r, or the last predecessor:
            # count the sums at or below r among all but the last
            r = rng.random(len(multi)) * sigma[v[multi]]
            span = count[multi] - 1
            start = span.cumsum() - span
            scan = np.arange(span.sum()) + (k[multi] - start).repeat(span)
            k[multi] += np.add.reduceat(cum[scan] <= r.repeat(span), start, dtype=np.int64)
        walkers.append(at)
        eids.append(pred_eid[k])
        cur[at] = pred[k]
    return np.concatenate(walkers), np.concatenate(eids)
