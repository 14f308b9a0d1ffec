"""The array-native BFS DAGs, backtracking and Brandes accumulation against
the node-at-a-time references in ``oracles``: equal distances, orders and
predecessor groups, bitwise-equal path counts and betweenness, the same
sampled paths from the same generator draws (one target at a time and
every target of a source at once), and the byte-bounded cache."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homsample import Graph, TracerouteDesign, edge_betweenness, make_rng
from homsample import shortest_paths
from homsample.shortest_paths import path_dag, sample_path, sample_paths
from oracles import (
    random_graph,
    reference_backtrack,
    reference_edge_betweenness,
    reference_path_dag,
    reference_sample_path,
)


def grid(k):
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return Graph.from_edges(k * k, edges)


def layered(width, depth):
    """Complete bipartite links between consecutive layers: width**depth shortest end-to-end paths."""
    edges = [(a * width + i, (a + 1) * width + j)
             for a in range(depth) for i in range(width) for j in range(width)]
    return Graph.from_edges(width * (depth + 1), edges)


def same_state(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def assert_same_dag(g, s, targets, seed):
    dag, ref = path_dag(g, s), reference_path_dag(g, s)
    assert np.array_equal(dag.dist, ref.dist)
    assert dag.sigma.tobytes() == ref.sigma.tobytes()
    assert np.array_equal(dag.order, ref.order)
    depth = np.repeat(np.arange(len(dag.levels) - 1), np.diff(dag.levels))
    assert np.array_equal(depth, ref.dist[ref.order])
    for v in range(g.node_count):
        lo, hi = dag.pred_lo[v], dag.pred_hi[v]
        assert dag.pred[lo:hi].tolist() == [int(u) for u in ref.preds[v]]
        assert dag.pred_eid[lo:hi].tolist() == list(ref.pred_eids[v])
        if ref.dist[v] > 0:
            # backtracking scans left-to-right running sums up to sigma[v]
            assert dag.sigma[v].tobytes() == np.cumsum(ref.sigma[list(ref.preds[v])])[-1].tobytes()
    fast, slow = make_rng(seed), make_rng(seed)
    for t in targets:
        assert sample_path(dag, t, fast) == reference_sample_path(ref, t, slow)
        assert same_state(fast, slow)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 16), isolated=st.integers(0, 3), p=st.floats(0.05, 0.6),
       seed=st.integers(0, 2**32 - 1))
def test_dag_paths_and_betweenness_match_reference(n, isolated, p, seed):
    rng = np.random.default_rng(seed)
    # two random parts with no edge between them, then isolated nodes
    a, b = random_graph(rng, n, p), random_graph(rng, n, p)
    g = Graph.from_arrays(2 * n + isolated, np.concatenate([a.edge_i, b.edge_i + n]),
                          np.concatenate([a.edge_j, b.edge_j + n]))
    for s in range(g.node_count):
        assert_same_dag(g, s, range(g.node_count), seed + s)
    assert edge_betweenness(g).tobytes() == reference_edge_betweenness(g).tobytes()


def test_grid_counts_beyond_float_precision_match_reference():
    g = grid(40)
    corners = (0, 39, 1560, 1599)
    for s in (*corners, 820):
        assert_same_dag(g, s, (*corners, 7, 777, 1234), s)
    assert path_dag(g, 0).sigma[1599] > 2.0 ** 53   # C(78, 39) shortest corner-to-corner paths


def test_betweenness_bitwise_with_counts_beyond_float_precision(karate):
    g = layered(3, 36)
    assert path_dag(g, 0).sigma.max() > 2.0 ** 53
    assert edge_betweenness(g).tobytes() == reference_edge_betweenness(g).tobytes()
    kg, _ = karate
    assert edge_betweenness(kg).tobytes() == reference_edge_betweenness(kg).tobytes()


def assert_same_backtrack(g, s, seed, repeat=2):
    """The batched kernel's steps and generator use equal the scalar reference's,
    over every node as a target, each listed ``repeat`` times."""
    dag, ref = path_dag(g, s), reference_path_dag(g, s)
    targets = np.tile(np.arange(g.node_count), repeat)
    # the kernel's running sums are the reference's left-to-right cumsums
    cum = shortest_paths._running_sums(dag)
    for v in range(g.node_count):
        if ref.pred_cum[v] is not None:
            assert cum[dag.pred_lo[v]:dag.pred_hi[v]].tobytes() == ref.pred_cum[v].tobytes()
    fast, slow = make_rng(seed), make_rng(seed)
    walker, eids = sample_paths(dag, targets, fast)
    assert (walker.tolist(), eids.tolist()) == reference_backtrack(ref, targets, slow)
    assert same_state(fast, slow)
    # each walker's steps are a shortest path from its target back to s;
    # s itself and unreachable targets take none
    for w, t in enumerate(targets):
        steps = eids[walker == w]
        assert len(steps) == max(dag.dist[t], 0)
        if not len(steps):
            continue
        ends = {int(t)}
        for e in steps:
            i, j = int(g.edge_i[e]), int(g.edge_j[e])
            assert ends & {i, j}
            ends = {i, j} - ends
        assert ends == {s}
    # one target draws its uniforms from the target back, as sample_path does
    for t in (dag.dist > 0).nonzero()[0][:5]:
        one, scalar = make_rng(seed), make_rng(seed)
        walker, eids = sample_paths(dag, [t], one)
        assert eids.tolist() == sample_path(dag, t, scalar)[1][::-1]
        assert same_state(one, scalar)


def test_batched_backtrack_matches_reference(karate):
    kg, _ = karate
    for s in range(kg.node_count):
        assert_same_backtrack(kg, s, 1000 + s)
    g = layered(3, 36)
    assert path_dag(g, 0).sigma.max() > 2.0 ** 53
    for s in (0, 1, 55, 110):
        assert_same_backtrack(g, s, s)


class Constant:
    """A stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_batched_backtrack_breaks_ties_as_sample_path_does():
    # path counts are powers of two, so these uniforms land exactly on running sums
    g = layered(2, 4)
    dag = path_dag(g, 0)
    for u in (0.0, 0.25, 0.5, 0.75):
        for t in range(1, g.node_count):
            walker, eids = sample_paths(dag, [t], Constant(u))
            assert eids.tolist() == sample_path(dag, t, Constant(u))[1][::-1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0.1, 0.7), seed=st.integers(0, 2**32 - 1))
def test_batched_backtrack_matches_reference_on_two_components(n, p, seed):
    rng = np.random.default_rng(seed)
    a, b = random_graph(rng, n, p), random_graph(rng, n, p)
    g = Graph.from_arrays(2 * n + 1, np.concatenate([a.edge_i, b.edge_i + n]),
                          np.concatenate([a.edge_j, b.edge_j + n]))
    for s in range(g.node_count):
        assert_same_backtrack(g, s, seed + s, repeat=3)


def test_cache_is_bounded_in_bytes(monkeypatch, karate):
    kg, _ = karate
    g0 = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    budget = 5 * path_dag(g0, 0).nbytes
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", 0)
    uncached = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    want_b = edge_betweenness(uncached)
    want_samples = [TracerouteDesign(6, 6).realize(uncached, make_rng(r)) for r in range(30)]
    assert uncached._sp_cache == {} and uncached._sp_cache_bytes == 0
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", budget)
    g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    assert edge_betweenness(g).tobytes() == want_b.tobytes()
    for r, want in enumerate(want_samples):
        got = TracerouteDesign(6, 6).realize(g, make_rng(r))
        assert np.array_equal(got.edge_index, want.edge_index)
        assert got.paths == want.paths and got.meta == want.meta
    assert 0 < len(g._sp_cache) < g.node_count
    assert g._betweenness is not None and edge_betweenness(g) is g._betweenness
    assert g._sp_cache_bytes == sum(d.nbytes for d in g._sp_cache.values()) <= budget
