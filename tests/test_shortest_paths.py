"""The array-native BFS DAGs, backtracking and Brandes accumulation against
the node-at-a-time references in ``oracles``: equal distances, orders and
predecessor groups, bitwise-equal path counts and betweenness, the same
sampled paths from the same generator draws (one target at a time, and
every (row, source, target) path of a block at once, in chunks of any
size), and the byte-bounded cache."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsample import Graph, TracerouteDesign, edge_betweenness, make_rng
from homsample import sampling, shortest_paths
from homsample.graphon import sample_w_random_graph, two_block_graphon
from homsample.shortest_paths import path_dag, sample_path, sample_paths
from oracles import (
    random_graph,
    reference_block_paths,
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


def walk_block(g, sources, targets, rng):
    """Each walker's edge ids from :func:`sample_paths`, from its target back."""
    sources, targets = np.asarray(sources), np.asarray(targets)
    paths = [[] for _ in range(sources.size * targets.shape[1])]
    for walker, eids in sample_paths(g, sources, targets, rng):
        for w, e in zip(walker.tolist(), eids.tolist()):
            paths[w].append(e)
    return paths


def assert_same_backtrack(g, sources, targets, seed, monkeypatch):
    """The block kernel's steps and generator use equal the scalar reference's,
    at every chunk budget, and each step list is a shortest path."""
    # the running sums of all the sources' DAGs at once, laid end to end, are
    # each DAG's left-to-right cumsums
    dags = [path_dag(g, s) for s in np.unique(sources)]
    cum = shortest_paths._running_sums(dags)
    assert len(cum) == sum(len(dag.pred) for dag in dags)
    for dag in dags:
        ref = reference_path_dag(g, dag.source)
        for v in range(g.node_count):
            if ref.pred_cum[v] is not None:
                assert cum[dag.pred_lo[v]:dag.pred_hi[v]].tobytes() == ref.pred_cum[v].tobytes()
        cum = cum[len(dag.pred):]
    slow = make_rng(seed)
    want = reference_block_paths(g, sources, targets, slow)
    for budget in (0, 1 << 14, 1 << 62):
        monkeypatch.setattr(shortest_paths, "_CHUNK_BYTES", budget)
        fast = make_rng(seed)
        assert walk_block(g, sources, targets, fast) == want
        assert same_state(fast, slow)
    # walker (r, i, j) runs from targets[r, j] back to sources[r, i]
    sources, targets = np.asarray(sources), np.asarray(targets)
    n_s, n_t = sources.shape[1], targets.shape[1]
    for w, steps in enumerate(want):
        r, i, j = w // (n_s * n_t), w // n_t % n_s, w % n_t
        s, t = int(sources[r, i]), int(targets[r, j])
        assert len(steps) == max(path_dag(g, s).dist[t], 0)
        ends = {t}
        for e in steps:
            u, v = int(g.edge_i[e]), int(g.edge_j[e])
            assert ends & {u, v}
            ends = {u, v} - ends
        assert not steps or ends == {s}


def test_batched_backtrack_matches_reference(monkeypatch, karate):
    kg, _ = karate
    n = kg.node_count
    # every node a source and a target in two rows, then SRS rows as the oracle draws them
    everything = np.tile(np.arange(n), (2, 1))
    assert_same_backtrack(kg, everything, everything, 1000, monkeypatch)
    rng = make_rng(5)
    sources, targets = sampling._srs_rows(rng, 40, n, 3), sampling._srs_rows(rng, 40, n, 4)
    assert_same_backtrack(kg, sources, targets, 1001, monkeypatch)
    g = layered(3, 36)
    assert path_dag(g, 0).sigma.max() > 2.0 ** 53
    all_nodes = np.tile(np.arange(g.node_count), (3, 1))
    assert_same_backtrack(g, np.array([[0, 1, 55, 110]] * 3), all_nodes, 7, monkeypatch)


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
            steps = walk_block(g, [[0]], [[t]], Constant(u))
            assert steps == [sample_path(dag, t, Constant(u))[1][::-1]]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0.1, 0.7), rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_batched_backtrack_matches_reference_on_two_components(n, p, rows, seed):
    rng = np.random.default_rng(seed)
    a, b = random_graph(rng, n, p), random_graph(rng, n, p)
    g = Graph.from_arrays(2 * n + 1, np.concatenate([a.edge_i, b.edge_i + n]),
                          np.concatenate([a.edge_j, b.edge_j + n]))
    nodes = np.tile(np.arange(g.node_count), (rows, 1))
    # hypothesis runs its examples in one test call, so the budget is set by hand
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_backtrack(g, nodes, nodes, seed, monkeypatch)


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


def test_walk_writes_nothing_onto_cached_dags(karate):
    kg, _ = karate
    g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    edge_betweenness(g)
    assert len(g._sp_cache) == g.node_count
    held = {s: d.nbytes for s, d in g._sp_cache.items()}
    total = g._sp_cache_bytes
    TracerouteDesign(3, 3).edge_counts(g, make_rng(0), 50)
    assert {s: d.nbytes for s, d in g._sp_cache.items()} == held
    assert g._sp_cache_bytes == total == sum(held.values())


def test_dags_are_frozen(karate):
    kg, _ = karate
    dag = path_dag(kg, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dag.sigma = dag.sigma.copy()


def test_block_kernel_holds_one_chunk_of_dags_at_a_time(monkeypatch):
    # one realization with 40 sources on a 50 x 50 grid: a DAG and its running
    # sums take 218 kB, so all 40 gathered at once take some 17 MB. The kernel
    # holds one chunk, gathered, and the next source's DAG: under the chunk
    # budget plus four DAGs
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", 0)
    g = grid(50)
    dag = path_dag(g, 0)
    one = dag.nbytes + 8 * len(dag.pred)
    g._adjacency()
    peaks = {}
    for budget in (0, 1 << 20, 1 << 62):
        monkeypatch.setattr(shortest_paths, "_CHUNK_BYTES", budget)
        tracemalloc.start()
        try:
            counts = TracerouteDesign(40, 3).edge_counts(g, make_rng(1), 1)
            peaks[budget] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() > 0
    assert peaks[0] <= 4 * one
    assert peaks[1 << 20] <= (1 << 20) + 4 * one
    assert peaks[1 << 62] > 40 * one


def test_dags_hold_int32_ids_in_24_bytes_a_node_and_8_a_predecessor():
    # the traceroute-betweenness graph of the benchmark, at workload seed 1
    w, _ = two_block_graphon(0.13, 0.05)
    g, _ = sample_w_random_graph(w, 200, np.random.default_rng([1, 0]))
    edge_betweenness(g)
    assert len(g._sp_cache) == g.node_count
    ids = ("dist", "order", "levels", "pred_lo", "pred_hi", "pred", "pred_eid")
    for dag in g._sp_cache.values():
        assert all(getattr(dag, name).dtype == np.int32 for name in ids)
        assert dag.sigma.dtype == np.float64
        assert dag.nbytes == 24 * g.node_count + 8 * len(dag.pred) + dag.levels.nbytes
    total = sum(d.nbytes for d in g._sp_cache.values())
    assert g._sp_cache_bytes == total
    # 2.22 MB; with int64 ids the same DAGs took 4.12 MB
    assert total < 2_400_000
    for a in g._adjacency()[1:]:
        assert a.dtype == np.int32
