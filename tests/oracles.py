"""Independent brute-force references used by the tests.

Everything here is deliberately naive (dense matrices, explicit
enumeration, recursive path listing) and shares no code with the library
paths it checks.
"""

import itertools
from fractions import Fraction

import numpy as np

from homsample import Graph, GraphSignal


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    a[g.edge_i, g.edge_j] = g.edge_w
    a[g.edge_j, g.edge_i] = g.edge_w
    return a


def dense_laplacian_tv(g: Graph, s: GraphSignal) -> float:
    """trace(X^T L X) with an explicitly materialized combinatorial Laplacian."""
    a = dense_adjacency(g)
    lap = np.diag(a.sum(axis=1)) - a
    x = np.asarray(s.rows)
    return float(np.trace(x.T @ lap @ x))


def srs_subsets(n: int, n_star: int):
    return itertools.combinations(range(n), n_star)


def srs_expectation(n: int, n_star: int, stat) -> float:
    """Uniform average of stat(subset) over all size-n_star subsets."""
    vals = [stat(sub) for sub in srs_subsets(n, n_star)]
    return float(np.mean(vals))


def all_shortest_paths(g: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """Every minimal-hop s-t path, by BFS distances plus recursive unwinding."""
    n = g.node_count
    dist = np.full(n, -1)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(int(w))
        frontier = nxt
    if dist[t] < 0:
        return []
    paths = []

    def unwind(v, tail):
        if v == s:
            paths.append((s, *tail))
            return
        for u in g.neighbors(v):
            if dist[u] == dist[v] - 1:
                unwind(int(u), (v, *tail))

    unwind(t, ())
    return paths


def brute_edge_betweenness(g: Graph) -> np.ndarray:
    """Ordered-pair edge betweenness by explicit shortest-path enumeration."""
    b = np.zeros(g.edge_count)
    for s in range(g.node_count):
        for t in range(g.node_count):
            if s == t:
                continue
            paths = all_shortest_paths(g, s, t)
            if not paths:
                continue
            share = 1.0 / len(paths)
            for path in paths:
                for u, v in zip(path, path[1:]):
                    b[g.edge_id(u, v)] += share
    return b


def riemann_phi(grid_values: np.ndarray, signal_grid: np.ndarray, refine: int = 8) -> float:
    """Half the ordered double integral, on a Riemann grid refined beyond the blocks.

    Exact for piecewise-constant integrands when ``refine`` is an integer
    multiple; refining past 1 makes this an independent check of the block
    quadrature.
    """
    m = grid_values.shape[0]
    k = m * refine
    u = (np.arange(k) + 0.5) / k
    cells = np.minimum((u * m).astype(int), m - 1)
    w = grid_values[np.ix_(cells, cells)]
    x = np.asarray(signal_grid, dtype=float)[cells]
    sq = (x * x).sum(axis=1)
    total = (w * (sq[:, None] + sq[None, :] - 2.0 * (x @ x.T))).sum()
    return float(total) / (2.0 * k * k)


def dense_joint(g: Graph, edge_ids, pi, joint_by_span) -> np.ndarray:
    """Edge x edge joint inclusion matrix of a closed-form model.

    Entry (a, b) is ``joint_by_span[k]`` for the k distinct endpoints of
    edges ``edge_ids[a]`` and ``edge_ids[b]``, counted from endpoint sets;
    the diagonal is ``pi[edge_ids]`` (``pi`` is aligned with g's edges).
    """
    ends = [{int(g.edge_i[e]), int(g.edge_j[e])} for e in edge_ids]
    joint = np.empty((len(ends), len(ends)))
    for a, ea in enumerate(ends):
        for b, eb in enumerate(ends):
            joint[a, b] = joint_by_span[len(ea | eb)]
    np.fill_diagonal(joint, np.asarray(pi)[np.asarray(edge_ids, dtype=np.int64)])
    return joint


def dense_ht_variance(values, pi, joint) -> float:
    """HT variance double sum over an explicit edge x edge joint matrix.

    ``sum_e sum_f V_e V_f (1/(pi_e pi_f) - 1/joint_ef)``, unclamped; the
    diagonal of ``joint`` must hold ``pi``.
    """
    values = np.asarray(values, dtype=np.float64)
    weighted = values / pi
    return float(np.outer(weighted, weighted).sum() - (np.outer(values, values) / joint).sum())


def exact_ht_variance(g: Graph, edge_ids, values, pi: float, joint_by_span) -> Fraction:
    """The same double sum in exact rational arithmetic on the float inputs.

    Each pair's joint is ``pi`` for an edge with itself and otherwise
    ``joint_by_span[k]`` for the k distinct endpoints of the pair, counted
    from the endpoints directly.
    """
    ends = [{int(g.edge_i[e]), int(g.edge_j[e])} for e in edge_ids]
    vals = [Fraction(float(v)) for v in values]
    pi = Fraction(float(pi))
    total = Fraction(0)
    for a, (ea, va) in enumerate(zip(ends, vals)):
        for b, (eb, vb) in enumerate(zip(ends, vals)):
            joint = pi if a == b else Fraction(float(joint_by_span[len(ea | eb)]))
            total += va * vb * (1 / (pi * pi) - 1 / joint)
    return total


def random_graph(rng, n: int, p: float = 0.5, weighted: bool = False) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    w = rng.integers(1, 5, size=int(keep.sum())).astype(float) if weighted else None
    return Graph.from_arrays(n, iu[keep], ju[keep], w)


def random_onehot_signal(rng, n: int, classes: int = 2) -> GraphSignal:
    return GraphSignal.from_labels(rng.integers(0, classes, size=n), classes)
