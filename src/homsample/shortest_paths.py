"""Hop-count shortest-path machinery shared by traceroute sampling and
edge betweenness: single-source BFS DAGs with path counts, and uniform
random draws from the set of shortest paths, one target at a time
(``sample_path``) or every (row, source, target) path of a block of
realizations at once (``sample_paths``).

A DAG is built by a level-synchronous BFS over the graph's CSR arrays
(``Graph._adjacency``: int32 neighbours and edge ids, 8 B an arc):
each frontier is expanded at once, new nodes are numbered in the order
the node-at-a-time BFS would discover them, and path counts are summed
in that BFS's order, so every count is bitwise the one it computes. The
DAG is a handful of flat arrays, with no per-node Python objects: its ids
are int32 and its path counts float64, 24 B a node and 8 B a predecessor
entry. Traversals compute in intp, which numpy indexes by fastest, and
store int32 once per DAG.

Path counts are kept as floats; only their ratios are ever used. A DAG is
what its BFS found and is never written after it. DAGs are rng-free, so
they are cached on the graph and reused across replications without
affecting reproducibility. The cache is bounded in bytes of DAG arrays:
past the budget, new DAGs are computed and not stored. The running sums
that ``sample_paths`` backtracks by belong to one chunk of its walk and
are computed there, for all of the chunk's DAGs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graph import Graph, stable_argsort

# per-graph budget for cached DAGs, counted by the bytes of their arrays
_CACHE_BYTES = 128 << 20
# budget for the DAGs and walkers of one chunk of sources in sample_paths
_CHUNK_BYTES = 1 << 23


@dataclass(frozen=True, eq=False, slots=True)
class PathDag:
    """BFS shortest-path DAG from one source, as flat arrays.

    ``order`` lists the reached nodes in BFS order and
    ``order[levels[d]:levels[d + 1]]`` are those at distance d. The
    predecessors of node v on shortest paths are
    ``pred[pred_lo[v]:pred_hi[v]]``, in BFS order, with the matching edge
    ids in ``pred_eid``. The groups are laid out in BFS order of v, so
    each level's predecessors are one contiguous slice. ``sigma`` is
    float64; every other array is int32.
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
    indptr, nbr, nbr_eid = g._adjacency()
    dist = np.full(n, -1, dtype=np.int32)
    sigma = np.zeros(n)
    dist[source] = 0
    sigma[source] = 1.0
    degree = g.degrees()
    # each level is computed in intp, which numpy indexes by fastest; the DAG stores int32
    frontier = np.array([source], dtype=np.intp)
    # first[w]: position, among its level's arcs, of the first arc that reaches w
    first = np.full(n, len(nbr), dtype=np.intp)
    order, preds, eids, starts, levels = [frontier], [], [], [], [0, 1]
    depth, stored = 0, 0
    while True:
        # every arc out of the frontier, in the order the node-at-a-time BFS scans them
        deg = degree[frontier]
        end = deg.cumsum()
        arc = np.arange(end[-1]) + (indptr[frontier] - end + deg).repeat(deg)
        w = nbr[arc].astype(np.intp)
        fresh = (dist[w] < 0).nonzero()[0]
        if not len(fresh):
            break
        v, w, arc = frontier.repeat(deg)[fresh], w[fresh], arc[fresh]
        # group the arcs by target in first-discovery order; a stable sort keeps
        # each group's predecessors in BFS order, led by its first arc
        np.minimum.at(first, w, fresh)
        key = first[w]
        grouped = stable_argsort(key, int(end[-1]))
        v, w, e = v[grouped], w[grouped], nbr_eid[arc[grouped]]
        start = (key == fresh)[grouped].nonzero()[0]
        frontier = w[start]
        depth += 1
        dist[frontier] = depth
        np.add.at(sigma, w, sigma[v])
        order.append(frontier)
        preds.append(v)
        eids.append(e)
        starts.append(start + stored)
        stored += len(w)
        levels.append(levels[-1] + len(frontier))
    del first, degree   # the level state: only the DAG's arrays are built from here
    # each reached node's predecessor group ends where the next one starts
    bounds = np.concatenate([*starts, [stored]])
    order = np.concatenate(order)
    pred_lo = np.zeros(n, dtype=np.int32)
    pred_hi = np.zeros(n, dtype=np.int32)
    pred_lo[order[1:]] = bounds[:-1]
    pred_hi[order[1:]] = bounds[1:]
    pred = np.concatenate(preds, dtype=np.int32) if preds else np.empty(0, dtype=np.int32)
    pred_eid = np.concatenate(eids) if eids else np.empty(0, dtype=np.int32)
    return PathDag(source, dist, sigma, order.astype(np.int32), np.array(levels, dtype=np.int32),
                   pred_lo, pred_hi, pred, pred_eid)


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


def _running_sums(dags) -> np.ndarray:
    """Running sums of ``sigma[pred]`` within each predecessor group of
    ``dags``, aligned with their ``pred`` arrays laid end to end.

    Entry k of a group adds its own count to entry k - 1's sum, one term at
    a time from the left as :func:`sample_path` adds them, so every sum is
    bitwise its running total. One pass per position in a group, for all
    the DAGs at once.
    """
    cum = np.concatenate([d.sigma[d.pred] for d in dags])
    # each DAG's groups tile its pred in BFS order of their nodes, so the
    # groups of all of them tile cum
    size = np.concatenate([np.diff(d.pred_lo[d.order[1:]], append=len(d.pred)) for d in dags])
    pos = np.arange(len(cum)) - (size.cumsum() - size).repeat(size)
    bounds = np.bincount(pos).cumsum()
    by_pos = stable_argsort(pos, len(bounds))
    for k in range(1, len(bounds)):
        at = by_pos[bounds[k - 1]:bounds[k]]
        cum[at] += cum[at - 1]
    return cum


def sample_paths(g: Graph, sources: np.ndarray, targets: np.ndarray, rng):
    """One uniform shortest path for every (row, source, target) of a block.

    ``sources`` and ``targets`` hold one row of node ids per realization.
    The walker of ``(r, i, j)``, numbered ``(r * n_s + i) * n_t + j``,
    walks from ``targets[r, j]`` back to ``sources[r, i]``. Yields
    ``(walker, edge_ids)`` arrays, level by level: walker[k] steps over
    edge edge_ids[k].

    Walkers draw in order of source (increasing), then row, then target.
    Each draws exactly dist(s, t) uniforms, one per hop from t back to s,
    whether or not the hop has a choice; s = t and unreachable walkers
    draw none and take no step. The uniforms lie in the stream one walker
    after another, so a block's draws are fixed by its sources and
    targets. Consecutive sources are therefore walked in chunks whose
    arrays fit ``_CHUNK_BYTES``, at least one source a chunk, and the
    chunking changes no bit. A chunk's paths are walked back at once, one
    BFS level at a time, deepest first; each hop picks a predecessor by
    the same running sum over path counts that :func:`sample_path` scans,
    so a given uniform gives the same pick.
    """
    n = g.node_count
    n_s, n_t = sources.shape[1], targets.shape[1]
    flat = sources.ravel()
    # entries of ``sources`` in order of source, then row; a count per node
    # relabels the sources, as np.unique would without importing numpy.ma
    entry = flat.argsort(kind="stable")
    per_source = np.bincount(flat, minlength=n)
    distinct = per_source.nonzero()[0]
    chunk, size, begin = [], 0, 0
    for s, end in zip(distinct.tolist(), per_source[distinct].cumsum().tolist()):
        dag = path_dag(g, s)
        # the DAG's arrays, held (24 B a node and 8 B a predecessor) and gathered
        # with its running sums (28 B and 24 B), and its walkers' index arrays
        # and uniforms, at most one a level
        share = 52 * n + 32 * len(dag.pred) + (end - begin) * n_t * (120 + 8 * len(dag.levels))
        if chunk and size + share > _CHUNK_BYTES:
            yield from _walk(n, chunk, n_s, targets, rng)
            chunk, size = [], 0
        chunk.append((dag, entry[begin:end]))
        size += share
        begin = end
    if chunk:
        yield from _walk(n, chunk, n_s, targets, rng)


def _walk(n: int, chunk: list, n_s: int, targets: np.ndarray, rng):
    """Walk a chunk's walkers back to their sources.

    ``chunk`` holds each source's DAG and entries of the block's
    ``sources`` (``r * n_s + i``). The DAGs' arrays are gathered into one:
    source slot c's node v is entry ``c * n + v`` of the node arrays, and
    its predecessor groups are offset past those of the slots before it.
    """
    dags, entries = zip(*chunk)
    # before the gather, so the sums' temporaries are gone when it runs
    cum = _running_sums(dags)
    offsets = np.cumsum([0] + [len(d.pred) for d in dags[:-1]])
    dist = np.concatenate([d.dist for d in dags])
    sigma = np.concatenate([d.sigma for d in dags])
    # the walk and its callers index by these, so they are gathered in intp
    pred_lo = np.concatenate([np.add(d.pred_lo, o, dtype=np.intp) for d, o in zip(dags, offsets)])
    pred_hi = np.concatenate([np.add(d.pred_hi, o, dtype=np.intp) for d, o in zip(dags, offsets)])
    pred = np.concatenate([np.add(d.pred, c * n, dtype=np.intp) for c, d in enumerate(dags)])
    pred_eid = np.concatenate([d.pred_eid for d in dags], dtype=np.intp)
    entry = np.concatenate(entries)
    n_t = targets.shape[1]
    number = (entry[:, None] * n_t + np.arange(n_t)).ravel()
    cur = (np.arange(len(dags)) * n).repeat([len(e) * n_t for e in entries])
    cur += targets[entry // n_s].ravel()
    depth = np.maximum(dist[cur], 0)
    # walker k's uniforms are u[start[k]:start[k] + depth[k]], from its target back
    start = depth.cumsum() - depth
    u = rng.random(int(depth.sum()))
    # walkers by depth, deepest first, so those still walking are a prefix
    walking = np.argsort(-depth, kind="stable")[:np.count_nonzero(depth)]
    depth, cur, pos, number = depth[walking], cur[walking], start[walking], number[walking]
    active = np.searchsorted(-depth, -np.arange(depth[0] if len(depth) else 0, 0, -1), side="right")
    for a in active.tolist():
        v = cur[:a]
        k = pred_lo[v]
        count = pred_hi[v] - k
        multi = (count > 1).nonzero()[0]
        if len(multi):
            # pick the first running sum above r, or the last predecessor:
            # count the sums at or below r among all but the last
            r = u[pos[multi]] * sigma[v[multi]]
            span = count[multi] - 1
            lead = span.cumsum() - span
            scan = np.arange(span.sum()) + (k[multi] - lead).repeat(span)
            k[multi] += np.add.reduceat(cum[scan] <= r.repeat(span), lead, dtype=np.int64)
        yield number[:a], pred_eid[k]
        cur[:a] = pred[k]
        pos[:a] += 1
