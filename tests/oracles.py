"""Independent brute-force references used by the tests.

Everything here is deliberately naive (dense matrices, explicit
enumeration, recursive path listing) and shares no code with the library
paths it checks.
"""

import io
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from homsample import Graph, GraphSignal
from homsample.graph import EdgeListError, LabelError, UnlabelledNodeError
from homsample.estimators import (
    HAJEK_RATIO,
    PI_FLOOR,
    PLUG_IN,
    VARIANCE_CLAMPED,
    VARIANCE_EXACT,
    VARIANCE_UNSUPPORTED,
    DegenerateSampleError,
)
from homsample.inclusion import InclusionModel
from homsample.metrics import METRICS, NODE_HOMOPHILY, same_label_values
from homsample.rng import child_rng
from homsample.sampling import induced_subgraph


def edge_id(g: Graph, u: int, v: int) -> int:
    """Index of the stored edge {u, v}, by a scan of the edge arrays; KeyError if absent."""
    lo, hi = min(u, v), max(u, v)
    hits = np.flatnonzero((g.edge_i == lo) & (g.edge_j == hi))
    if not len(hits):
        raise KeyError(f"no such edge ({u}, {v})")
    return int(hits[0])


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    a[g.edge_i, g.edge_j] = g.edge_w
    a[g.edge_j, g.edge_i] = g.edge_w
    return a


def signal_rows(s: GraphSignal) -> np.ndarray:
    """A signal's feature rows, or the one-hot rows of its labels."""
    return np.asarray(s.rows) if s.labels is None else np.eye(s.dim)[s.labels]


def dense_laplacian_tv(g: Graph, s: GraphSignal) -> float:
    """trace(X^T L X) with an explicitly materialized combinatorial Laplacian."""
    a = dense_adjacency(g)
    lap = np.diag(a.sum(axis=1)) - a
    x = signal_rows(s)
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
                    b[edge_id(g, u, v)] += share
    return b


def reference_path_dag(g: Graph, source: int) -> SimpleNamespace:
    """Node-at-a-time BFS shortest-path DAG with per-node predecessor tuples.

    ``preds[v]`` lists the predecessors of ``v`` in BFS order,
    ``pred_eids[v]`` the matching edge ids, and ``pred_cum[v]`` their
    cumulative path counts (None for fewer than two predecessors).
    Uncached: it never touches the graph's DAG cache.
    """
    n = g.node_count
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    preds = [() for _ in range(n)]
    pred_eids = [() for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1.0
    order = [source]
    queue = deque([source])
    indptr, nbr, nbr_eid = g._adjacency()
    while queue:
        v = queue.popleft()
        dv = dist[v]
        sv = sigma[v]
        for k in range(indptr[v], indptr[v + 1]):
            w = nbr[k]
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
                order.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
                preds[w] = preds[w] + (v,)
                pred_eids[w] = pred_eids[w] + (int(nbr_eid[k]),)
    pred_cum = [np.cumsum(sigma[list(p)]) if len(p) > 1 else None for p in preds]
    return SimpleNamespace(source=source, dist=dist, sigma=sigma, order=np.array(order, dtype=np.int64),
                           preds=preds, pred_eids=pred_eids, pred_cum=pred_cum)


def reference_sample_path(dag, t: int, rng):
    """Proportional backtracking over a :func:`reference_path_dag` DAG."""
    t = int(t)
    if dag.dist[t] < 0:
        return None
    nodes = [t]
    eids = []
    v = t
    preds, pred_eids, pred_cum = dag.preds, dag.pred_eids, dag.pred_cum
    while v != dag.source:
        p = preds[v]
        if len(p) == 1:
            k = 0
        else:
            cum = pred_cum[v]
            k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            if k == len(p):  # guard against r landing exactly on the total
                k = len(p) - 1
        eids.append(pred_eids[v][k])
        v = int(p[k])
        nodes.append(v)
    nodes.reverse()
    eids.reverse()
    return nodes, eids


def reference_block_paths(g: Graph, sources, targets, rng) -> list:
    """Every (row, source, target) path of a block, walked back one at a time
    over :func:`reference_path_dag` DAGs.

    Walkers go in order of source, then row, then target. Each draws
    dist(s, t) uniforms, one ``rng.random()`` per hop from t back to s,
    whether or not the hop has a choice, and picks each predecessor by
    its hop's uniform. Returns the edge ids, from t back to s, of every
    (r, i, j) walker from ``targets[r][j]`` to ``sources[r][i]``, in
    that (row, source, target) order.
    """
    n_s, n_t = len(sources[0]), len(targets[0])
    pairs = sorted((int(s), r, i) for r, row in enumerate(sources) for i, s in enumerate(row))
    dags = {}
    paths = [None] * (len(sources) * n_s * n_t)
    for s, r, i in pairs:
        if s not in dags:
            dags[s] = reference_path_dag(g, s)
        dag = dags[s]
        for j, t in enumerate(targets[r]):
            v, eids = int(t), []
            for _ in range(max(int(dag.dist[v]), 0)):
                u = rng.random()
                p = dag.preds[v]
                k = 0
                if len(p) > 1:
                    cum = dag.pred_cum[v]
                    k = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(p) - 1)
                eids.append(dag.pred_eids[v][k])
                v = int(p[k])
            paths[(r * n_s + i) * n_t + j] = eids
    return paths


def reference_empirical_pi(g: Graph, design, replications: int, seed: int) -> InclusionModel:
    """Monte Carlo inclusion frequencies, one fresh stream per replication:
    replication r realizes the design on ``child_rng(seed, r)``."""
    design.validate(g.node_count)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    counts = np.zeros(g.edge_count, dtype=np.int64)
    base = int(seed)
    for r in range(replications):
        counts[design.realize(g, child_rng(base, r)).edge_index] += 1
    return InclusionModel(
        source=f"empirical:{design.kind}",
        pi=counts / replications,
    )


def reference_edge_counts(g: Graph, design, rng, replications: int) -> np.ndarray:
    """Times each edge is sampled over ``replications`` node draws of an
    induced design, one after another from ``rng``, each induced alone."""
    counts = np.zeros(g.edge_count, dtype=np.int64)
    for _ in range(replications):
        counts[induced_subgraph(g, design.node_sample(g, rng)).edge_index] += 1
    return counts


def reference_edge_betweenness(g: Graph) -> np.ndarray:
    """Node-at-a-time Brandes accumulation over :func:`reference_path_dag` DAGs."""
    b = np.zeros(g.edge_count)
    for s in range(g.node_count):
        dag = reference_path_dag(g, s)
        sigma = dag.sigma
        delta = np.zeros(g.node_count)
        for w in dag.order[::-1]:
            coef = (1.0 + delta[w]) / sigma[w]
            for v, eid in zip(dag.preds[w], dag.pred_eids[w]):
                c = sigma[v] * coef
                b[eid] += c
                delta[v] += c
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


def reference_w_random_graph(w, n: int, rng) -> tuple[Graph, np.ndarray]:
    """W-random graph by one uniform per node pair, over all n(n-1)/2 pairs of ``triu_indices``."""
    u = rng.random(n)
    m = w.values.shape[0]
    cells = np.minimum((u * m).astype(np.int64), m - 1)
    iu, ju = np.triu_indices(n, k=1)
    probs = w.values[cells[iu], cells[ju]]
    keep = rng.random(len(probs)) < probs
    return Graph.from_arrays(n, iu[keep], ju[keep]), u


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Symmetric nonnegative block matrix; block (i, j) holds the edge weight."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("block matrix must be square")
        if not np.array_equal(v, v.T):
            raise ValueError("block matrix must be symmetric")
        if np.any(v < 0):
            raise ValueError("block values must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def block_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class StepSignal:
    """Per-block feature rows of a step signal."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.rows, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError("rows must be 2-d")
        object.__setattr__(self, "rows", r)

    @property
    def block_count(self) -> int:
        return self.rows.shape[0]


def to_step_pair(g: Graph, s: GraphSignal) -> tuple[StepGraphon, StepSignal]:
    """Embed a graph-signal pair as (dense adjacency blocks, feature rows)."""
    if s.node_count != g.node_count:
        raise ValueError("signal does not match graph")
    n = g.node_count
    a = np.zeros((n, n))
    a[g.edge_i, g.edge_j] = g.edge_w
    a[g.edge_j, g.edge_i] = g.edge_w
    return StepGraphon(a), StepSignal(signal_rows(s))


def _half_ordered_sum(w: np.ndarray, x: np.ndarray) -> float:
    # sum_ab w_ab ||x_a - x_b||^2 expanded bilinearly, halved
    sq = np.einsum("af,af->a", x, x)
    rowsum = w.sum(axis=1)
    cross = float(np.einsum("ab,ab->", w, x @ x.T))
    return float(rowsum @ sq) - cross


def dense_phi_step(w: StepGraphon, x: StepSignal) -> float:
    """Smoothness functional of a step pair over its dense n x n blocks."""
    if w.block_count != x.block_count:
        raise ValueError(f"block counts differ: {w.block_count} vs {x.block_count}")
    n = w.block_count
    return _half_ordered_sum(w.values, x.rows) / float(n * n)


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


def reference_csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, nbr, nbr_eid)`` of g by concatenation and a stable argsort of both directions."""
    n, m = g.node_count, g.edge_count
    src = np.concatenate([g.edge_i, g.edge_j])
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).astype(np.int64)
    return (indptr, np.concatenate([g.edge_j, g.edge_i])[order],
            np.concatenate([np.arange(m), np.arange(m)])[order])


def reference_node_sums(i, j, values) -> tuple[np.ndarray, np.ndarray]:
    """Per-endpoint sums and edge counts in node order, through a sort of the endpoints."""
    _, node = np.unique(np.concatenate([i, j]), return_inverse=True)
    return np.bincount(node, weights=np.concatenate([values, values])), np.bincount(node)


# -- the per-replication experiment loop, the reference for the block engine ----

def _reference_floor_error(g: Graph, edge: int, pi: float, source: str):
    return DegenerateSampleError(
        f"sampled edge ({g.edge_i[edge]}, {g.edge_j[edge]}) has inclusion "
        f"probability {pi:g} below the floor {PI_FLOOR:g} under the "
        f"{source} model, which contradicts this realization; use the "
        "empirical inclusion oracle (empirical_pi), with more replications "
        "if it produced this model")


def _reference_span_variance(g, ids, values, pi, incl, clamp_negative):
    """The span-sum HT variance of one sample's edges ``ids``, computed alone."""
    m = len(ids)
    if m == 0:
        return 0.0, VARIANCE_EXACT
    sums, degrees = reference_node_sums(g.edge_i[ids], g.edge_j[ids], values)
    q = float((values * values).sum())
    a = float((sums * sums).sum()) - 2.0 * q
    t = float(values.sum())
    d = t * t - q - a
    pairs3 = int(degrees @ degrees) - 2 * m
    pairs4 = m * m - m - pairs3
    joint = incl.joint_by_span
    for span, pairs in ((3, pairs3), (4, pairs4)):
        if pairs and joint[span] <= 0:
            raise DegenerateSampleError(
                f"{pairs} observed ordered edge pairs spanning {span} nodes have joint "
                f"inclusion probability 0 under the {incl.source} model, which "
                "contradicts this realization")
    pi = float(pi[0])
    inv_sq = 1.0 / (pi * pi)
    est = q * (inv_sq - 1.0 / pi)
    if pairs3:
        est += a * (inv_sq - 1.0 / joint[3])
    if pairs4:
        est += d * (inv_sq - 1.0 / joint[4])
    est = float(est)
    if -math.inf < est < 0 and clamp_negative:
        return 0.0, VARIANCE_CLAMPED
    return est, VARIANCE_EXACT


class ReferenceColumns:
    """One sample at a time: each estimate gathers its sampled ids from
    per-edge columns over all edges and runs its checks on that sample alone,
    giving the ``{"point", "variance", "variance_status"}`` entry of a run record."""

    def __init__(self, g: Graph, signal: GraphSignal, incl: InclusionModel | None, kinds):
        self.graph = g
        self.incl = incl
        self._values, self._den, self._known = {}, {}, {}
        by_kernel, weight = {}, float(g.edge_w.sum())
        for kind in kinds:
            if kind == NODE_HOMOPHILY:
                self._values[kind] = same_label_values(g, signal)
                continue
            kernel, scale = METRICS[kind]
            if kernel not in by_kernel:
                by_kernel[kernel] = kernel(g, signal)
            self._values[kind] = by_kernel[kernel]
            self._known[kind] = 1.0 if scale is None else scale * weight
            if scale is not None:
                self._den[kind] = scale * g.edge_w
        low = None if incl is None else incl.pi < PI_FLOOR
        self._low = low if low is not None and low.any() else None

    def _pi(self, ids):
        pi = self.incl.pi[ids]
        if self._low is not None:
            bad = np.flatnonzero(self._low[ids])
            if len(bad):
                raise _reference_floor_error(self.graph, ids[bad[0]], pi[bad[0]],
                                             self.incl.source)
        return pi

    def estimate(self, sample, kind: str, mode: str):
        g, ids = self.graph, sample.edge_index
        values = self._values[kind][ids]
        variance = None
        variance_status = VARIANCE_UNSUPPORTED

        if kind == NODE_HOMOPHILY:
            if not len(ids):
                raise DegenerateSampleError("no sampled edges; node homophily undefined")
            sums, counts = reference_node_sums(g.edge_i[ids], g.edge_j[ids], values)
            point = float(np.mean(sums / counts))
        else:
            if mode == PLUG_IN:
                den = float(self._den[kind][ids].sum()) if kind in self._den else 1.0
                if den == 0.0:
                    raise DegenerateSampleError("empty sample; plug-in ratio undefined")
                point = float(values.sum()) / den
            elif mode == HAJEK_RATIO:
                pi = self._pi(ids)
                den = float((self._den[kind][ids] / pi).sum())
                if den == 0.0:
                    raise DegenerateSampleError(
                        "zero HT denominator (empty or degenerate sample)")
                point = float((values / pi).sum()) / den
            else:  # ht_total, or known_denominator
                den = self._known[kind]
                if den <= 0:
                    raise ValueError("parent graph has no edge weight")
                pi = self._pi(ids)
                point = float((values / pi).sum()) / den
                if self.incl.has_joint:
                    var, variance_status = _reference_span_variance(g, ids, values, pi,
                                                                    self.incl, True)
                    variance = var / (den * den)

        if not math.isfinite(point) or (variance is not None and not math.isfinite(variance)):
            raise DegenerateSampleError(f"non-finite estimate for {kind}/{mode}")
        return {"point": point, "variance": variance, "variance_status": variance_status}


# -- numpy's own SeedSequence seeding, the reference for the batched hash ----

def reference_make_rng(seed: int) -> np.random.Generator:
    """Philox generator for an integer seed, keyed by numpy's SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def reference_child_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by numpy's SeedSequence of ``[base_seed, *path]``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])))


def reference_derive_seed(base_seed: int, *path: int) -> int:
    """The 64-bit word numpy's SeedSequence makes of ``[base_seed, *path]``."""
    seq = np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])
    lo, hi = seq.generate_state(2)
    return int(lo) | (int(hi) << 32)


def reference_replicate(g, design, columns, metric_pairs, rep, seed):
    """One replication dict of an experiment, drawn alone on numpy's own
    seeding of ``seed`` and estimated alone."""
    design.validate(g.node_count)
    sample = design.realize(g, reference_make_rng(seed))
    estimates = {}
    for kind, mode in metric_pairs:
        key = f"{kind}:{mode}"
        try:
            estimates[key] = columns.estimate(sample, kind, mode)
        except DegenerateSampleError as exc:
            estimates[key] = {"invalid": str(exc)}
    return {"rep": rep, "seed": seed, "sampled_nodes": sample.node_count,
            "sampled_edges": sample.edge_count, "estimates": estimates}


# -- per-line text parsers and formatter, the references for the bulk ones ----

def reference_dump_edge_list(g: Graph) -> str:
    """Edge-list text formatted one numpy scalar at a time."""
    buf = io.StringIO()
    for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w):
        buf.write(f"{i} {j} {float(w)!r}\n")
    return buf.getvalue()


def _as_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    else:
        yield from enumerate(source, start=1)


def reference_load_edge_list(source, n_hint: int | None = None, labelled: int | None = None) -> Graph:
    """Parse an edge-list text stream or path into a canonical Graph.

    Duplicate ``(i, j)`` / ``(j, i)`` lines merge by summing weights.
    ``node_count`` is ``max id + 1``, or ``n_hint`` if larger. With
    ``labelled``, the number of nodes a label file names, an endpoint at
    or above it raises UnlabelledNodeError before any array sized by the
    node count is built. Without it, an id of 2**24 or more raises
    EdgeListError at the first line that holds the largest id.
    """
    ii, jj, ww = [], [], []
    max_id, max_line = -1, 0
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
        if max(i, j) > max_id:
            max_id, max_line = max(i, j), lineno
    if labelled is not None and max_id >= labelled:
        raise UnlabelledNodeError(
            f"edge endpoint node {max_id} has no label: the label file names {labelled} nodes")
    if labelled is None and max_id >= 2 ** 24:
        raise EdgeListError(
            f"line {max_line}: node id {max_id} exceeds {2 ** 24 - 1}, the largest id an edge "
            "list may hold without labels; give --labels so the label file sets the node count")
    n = max(max_id + 1, n_hint or 0)
    return Graph.from_arrays(n, ii, jj, ww)


def reference_from_arrays(node_count, i, j, w=None) -> Graph:
    """``Graph.from_arrays`` of valid rows by ``np.unique`` and a bincount over
    its inverse: each pair's weights summed in input order from 0.0."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    w = np.ones(len(i)) if w is None else np.asarray(w, dtype=np.float64)
    n = int(node_count)
    key = np.minimum(i, j) * n + np.maximum(i, j)
    uniq, inverse = np.unique(key, return_inverse=True)
    wsum = np.bincount(inverse, weights=w, minlength=len(uniq))
    keep = wsum > 0
    uniq, wsum = uniq[keep], wsum[keep]
    return Graph(n, uniq // n, uniq % n, wsum)


def reference_canonical_edges(i, j, w) -> tuple[list, list, list]:
    """``(edge_i, edge_j, edge_w)`` of raw pair rows, by a dict: each
    unordered pair's weights summed in input order from 0.0, pairs whose
    sum is zero dropped, pairs sorted."""
    sums = {}
    for a, b, x in zip(i, j, w):
        key = (min(a, b), max(a, b))
        sums[key] = sums.get(key, 0.0) + x
    pairs = sorted(key for key, total in sums.items() if total != 0.0)
    return [a for a, _ in pairs], [b for _, b in pairs], [sums[key] for key in pairs]


def reference_load_labels(source, class_count: int, n: int) -> GraphSignal:
    """Parse "node_id class_id" lines into a labelled GraphSignal.

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
