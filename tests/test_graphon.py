import numpy as np
import pytest

from homsample import (
    Graph,
    GraphSignal,
    GridGraphon,
    StepGraphon,
    StepSignal,
    convergence_experiment,
    dirichlet_energy,
    make_rng,
    phi_grid,
    phi_step,
    sample_w_random_graph,
    to_step_pair,
    two_block_graphon,
)
from homsample.graphon import signal_at_latents
from oracles import random_graph, random_onehot_signal, riemann_phi


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
    w, x = to_step_pair(g, s)
    assert phi_step(w, x) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_phi_step_constant_signal_is_zero():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    w, _ = to_step_pair(g, GraphSignal.from_labels([0, 1, 0], 2))
    x = StepSignal(np.ones((3, 2)))
    assert phi_step(w, x) == 0.0


def test_phi_step_block_mismatch():
    with pytest.raises(ValueError, match="block counts"):
        phi_step(StepGraphon(np.zeros((2, 2))), StepSignal(np.zeros((3, 1))))


def test_identity_holds_on_karate_and_random_graphs(karate):
    g, s = karate
    cases = [(g, s)]
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        gg = random_graph(rng, n, 0.4, weighted=bool(rng.integers(2)))
        cases.append((gg, random_onehot_signal(rng, n, int(rng.integers(2, 4)))))
    for gg, ss in cases:
        scaled = phi_step(*to_step_pair(gg, ss)) * gg.node_count ** 2
        tv = dirichlet_energy(gg, ss)
        assert scaled == pytest.approx(tv, rel=1e-9, abs=1e-12)


def test_phi_step_invariant_under_block_permutation():
    rng = np.random.default_rng(59)
    g = random_graph(rng, 12, 0.5, weighted=True)
    s = random_onehot_signal(rng, 12, 3)
    w, x = to_step_pair(g, s)
    perm = rng.permutation(12)
    w2 = StepGraphon(w.values[np.ix_(perm, perm)])
    x2 = StepSignal(x.rows[perm])
    assert phi_step(w2, x2) == pytest.approx(phi_step(w, x), rel=1e-12)


def test_grid_graphon_validation_and_json():
    with pytest.raises(ValueError, match="symmetric"):
        GridGraphon(np.array([[0.1, 0.2], [0.3, 0.1]]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        GridGraphon(np.array([[1.5]]))
    w, _ = two_block_graphon(0.5, 0.2, resolution=4)
    round_trip = GridGraphon.from_json_dict(w.to_json_dict())
    assert np.array_equal(round_trip.values, w.values)


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
