import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homsample import (
    Graph,
    GraphSignal,
    GridGraphon,
    convergence_experiment,
    dirichlet_energy,
    make_rng,
    phi_grid,
    phi_step,
    sample_w_random_graph,
    two_block_graphon,
)
from homsample import graphon
from homsample.graphon import signal_at_latents
from oracles import dense_phi_step, random_graph, random_onehot_signal, riemann_phi, to_step_pair


def test_step_pair_transcription():
    g = Graph.from_edges(2, [(0, 1)])
    s = GraphSignal.from_labels([0, 1], 2)
    w, x = to_step_pair(g, s)
    assert w.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert x.rows.tolist() == s.rows.tolist()
    # block (i, j), which holds (u, v) = ((i + 0.5) / n, (j + 0.5) / n), holds the edge weight
    assert w.values[0, 1] == 1.0
    assert w.values[0, 0] == 0.0
    assert x.rows[1].tolist() == [0.0, 1.0]


def test_step_pair_weighted():
    g = Graph.from_edges(2, [(0, 1, 3.0)])
    w, _ = to_step_pair(g, GraphSignal.from_labels([0, 1], 2))
    assert w.values[0, 1] == 3.0


def test_phi_step_identity_on_triangle(triangle):
    g, s = triangle
    assert phi_step(g, s) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_phi_step_constant_signal_is_zero():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert phi_step(g, GraphSignal(np.ones((3, 2)))) == 0.0


@st.composite
def graph_signal_pairs(draw):
    """A weighted graph with isolated nodes and a real signal of 1 to 4 columns."""
    n = draw(st.integers(1, 24))
    linked = draw(st.integers(1, n))           # nodes linked..n-1 have no edges
    pairs = [(i, j) for i in range(linked) for j in range(i + 1, linked)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(kept), max_size=len(kept)))
    g = Graph.from_arrays(n, [i for i, _ in kept], [j for _, j in kept], weights)
    f = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * f, max_size=n * f))
    return g, GraphSignal(np.reshape(values, (n, f)))


@settings(max_examples=200, deadline=None)
@given(pair=graph_signal_pairs())
def test_phi_step_matches_dense_reference(pair):
    g, s = pair
    n = g.node_count
    got = phi_step(g, s)
    # rounding error is relative to the size of the terms, sum_e w_e (|x_i|^2 + |x_j|^2),
    # which bounds the functional itself; a near-constant signal cancels them
    sq = (s.rows ** 2).sum(axis=1)
    scale = float(g.edge_w @ (sq[g.edge_i] + sq[g.edge_j]))
    assert got == pytest.approx(dense_phi_step(*to_step_pair(g, s)),
                                rel=1e-12, abs=1e-12 * scale / n ** 2)
    assert got * n ** 2 == pytest.approx(dirichlet_energy(g, s), rel=1e-9, abs=1e-9 * scale)
    with pytest.raises(ValueError, match="rows for"):
        phi_step(g, GraphSignal(np.zeros((n + 1, s.dim))))


def test_phi_step_memory_is_linear():
    # the dense n x n blocks of a 4,000-node graph would take 128 MB each
    n = 4000
    g = Graph.from_arrays(n, np.arange(n), (np.arange(n) + 1) % n)
    s = GraphSignal.from_labels(np.arange(n) % 2, 2)
    tracemalloc.start()
    try:
        phi = phi_step(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi == pytest.approx(2.0 / n, rel=1e-12)   # 2 per edge, n edges
    assert peak < 8_000_000


def test_identity_holds_on_karate_and_random_graphs(karate):
    g, s = karate
    cases = [(g, s)]
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        gg = random_graph(rng, n, 0.4, weighted=bool(rng.integers(2)))
        cases.append((gg, random_onehot_signal(rng, n, int(rng.integers(2, 4)))))
    for gg, ss in cases:
        scaled = phi_step(gg, ss) * gg.node_count ** 2
        tv = dirichlet_energy(gg, ss)
        assert scaled == pytest.approx(tv, rel=1e-9, abs=1e-12)


def test_phi_step_invariant_under_block_permutation():
    rng = np.random.default_rng(59)
    g = random_graph(rng, 12, 0.5, weighted=True)
    s = random_onehot_signal(rng, 12, 3)
    perm = rng.permutation(12)
    new_id = np.argsort(perm)                  # node perm[a] becomes node a
    g2 = Graph.from_arrays(12, new_id[g.edge_i], new_id[g.edge_j], g.edge_w)
    s2 = GraphSignal(s.rows[perm])
    assert phi_step(g2, s2) == pytest.approx(phi_step(g, s), rel=1e-12)


def test_grid_graphon_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GridGraphon(np.array([[0.1, 0.2], [0.3, 0.1]]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        GridGraphon(np.array([[1.5]]))


def test_phi_grid_analytic_two_block():
    # equal blocks, cross-block probability q, unit one-hot contrast:
    # phi = q / 2 under the half-ordered-sum convention
    for q in (0.1, 0.2, 0.35):
        w, sig = two_block_graphon(0.5, q)
        assert phi_grid(w, sig) == pytest.approx(q / 2, rel=1e-12)


def test_phi_grid_matches_riemann_oracle():
    rng = np.random.default_rng(61)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        half = rng.random((m, m))
        vals = (half + half.T) / 2
        w = GridGraphon(vals)
        sig = rng.random((m, 3))
        assert phi_grid(w, sig) == pytest.approx(riemann_phi(vals, sig), rel=1e-10)


def test_w_random_extremes():
    ones = GridGraphon(np.ones((2, 2)))
    g, _ = sample_w_random_graph(ones, 20, make_rng(1))
    assert g.edge_count == 20 * 19 // 2            # complete
    zeros = GridGraphon(np.zeros((2, 2)))
    g, _ = sample_w_random_graph(zeros, 20, make_rng(1))
    assert g.edge_count == 0                       # empty


def test_w_random_block_densities():
    w, _ = two_block_graphon(0.5, 0.1)
    g, u = sample_w_random_graph(w, 500, make_rng(5))
    block = (u >= 0.5).astype(int)
    cross_pairs = int((block == 0).sum()) * int((block == 1).sum())
    cross_edges = int((block[g.edge_i] != block[g.edge_j]).sum())
    assert abs(cross_edges / cross_pairs - 0.1) <= 0.01


def test_w_random_determinism():
    w, _ = two_block_graphon(0.4, 0.2)
    g1, u1 = sample_w_random_graph(w, 50, make_rng(9))
    g2, u2 = sample_w_random_graph(w, 50, make_rng(9))
    assert g1 == g2 and np.array_equal(u1, u2)


def test_convergence_experiment_shrinks():
    w, sig = two_block_graphon(0.5, 0.2)
    res = convergence_experiment(w, sig, sizes=(50, 200), reps=10, base_seed=3)
    assert res["phi"] == pytest.approx(0.1, abs=1e-12)
    assert res["series"][-1]["deviation"] < res["series"][0]["deviation"]
    assert [row["n"] for row in res["series"]] == [50, 200]


def test_convergence_constant_signal_is_exact():
    w, _ = two_block_graphon(0.5, 0.2)
    sig = np.ones((2, 2))
    res = convergence_experiment(w, sig, sizes=(30,), reps=5, base_seed=1)
    assert res["series"][0]["deviation"] == 0.0


def test_signal_at_latents_matches_blocks():
    w, sig = two_block_graphon(0.5, 0.2)
    u = np.array([0.1, 0.6, 0.49, 0.99])
    s = signal_at_latents(sig, w, u)
    assert s.rows.tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]


def test_phi_step_rejects_a_graph_without_nodes():
    with pytest.raises(ValueError, match="no nodes"):
        phi_step(Graph.from_edges(0, []), GraphSignal(np.zeros((0, 2))))


@pytest.mark.parametrize("sizes", [(10, 0), (-5,)])
def test_convergence_rejects_sizes_below_one_before_any_work(monkeypatch, sizes):
    def no_work(*args):
        raise AssertionError("a graph was generated before the sizes were checked")

    monkeypatch.setattr(graphon, "sample_w_random_graph", no_work)
    w, sig = two_block_graphon(0.5, 0.2)
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        convergence_experiment(w, sig, sizes=sizes, reps=2, base_seed=0)
