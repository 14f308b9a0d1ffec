import tracemalloc
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from homsample.graph import UNLABELLED_NODE_LIMIT
from homsample.graphon import signal_at_latents
from homsample.rng import child_rng
from oracles import (
    dense_phi_step,
    random_graph,
    random_onehot_signal,
    reference_w_random_graph,
    riemann_phi,
    to_step_pair,
)

# Fixed before any run: a fair standardized count exceeds it with probability
# below 7e-6, so a few hundred statistics pass together with probability > 0.99.
Z_BOUND = 4.5
# A 3 x 3 grid with entries 0 and 1 (which must be met exactly) and interior values.
GRID3 = np.array([[0.0, 1.0, 0.3],
                  [1.0, 0.5, 0.05],
                  [0.3, 0.05, 0.9]])


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
# squared deviations of 6.7e-320 are subnormal, where rounding is absolute
@example(pair=(Graph.from_arrays(8, [0], [1], [1.0]),
               GraphSignal(np.array([[2.59e-160]] + [[0.0]] * 7))))
def test_phi_step_matches_dense_reference(pair):
    g, s = pair
    n = g.node_count
    got = phi_step(g, s)
    # rounding error is relative to the size of the terms, sum_e w_e (|x_i|^2 + |x_j|^2),
    # which bounds the functional itself; a near-constant signal cancels them. Below
    # the smallest normal float the error is absolute (n^2 subnormal spacings at most),
    # so both absolute tolerances are floored at a few times that float
    sq = (s.rows ** 2).sum(axis=1)
    scale = float(g.edge_w @ (sq[g.edge_i] + sq[g.edge_j]))
    floor = 4 * np.finfo(float).tiny
    assert got == pytest.approx(dense_phi_step(*to_step_pair(g, s)),
                                rel=1e-12, abs=max(1e-12 * scale / n ** 2, floor))
    assert got * n ** 2 == pytest.approx(dirichlet_energy(g, s), rel=1e-9,
                                         abs=max(1e-9 * scale, floor))
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


@pytest.mark.parametrize("values", [[[np.nan]], [[0.5, np.nan], [np.nan, 0.5]],
                                    [[0.1, np.nan], [0.2, 0.1]]])
def test_a_nan_grid_value_is_out_of_range_not_asymmetric(values):
    with pytest.raises(ValueError, match="grid values must lie in \\[0, 1\\]"):
        GridGraphon(np.array(values))


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


def test_both_generators_draw_the_same_latents():
    w = GridGraphon(GRID3)
    for seed in range(5):
        _, u = sample_w_random_graph(w, 300, make_rng(seed))
        _, want = reference_w_random_graph(w, 300, make_rng(seed))
        assert u.tobytes() == want.tobytes()


def _standardized(hits: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per column: the count of hits minus its conditional mean, over its standard deviation.

    Rows are independent runs; ``probs`` holds each hit's probability given that
    run's latents. A column whose probabilities are all 0 or 1 has no spread and
    must be met exactly; it reads 0 when it is.
    """
    excess = (hits - probs).sum(axis=0)
    spread = np.sqrt((probs * (1.0 - probs)).sum(axis=0))
    assert np.all(hits[:, spread == 0] == probs[:, spread == 0])
    return excess / np.where(spread > 0, spread, 1.0)


@pytest.mark.parametrize("generate", [sample_w_random_graph, reference_w_random_graph],
                         ids=["geometric", "reference"])
def test_pair_frequencies_and_independence_follow_the_grid(generate):
    # every node pair is a Bernoulli draw of w[cell_i, cell_j] given the latents,
    # and two pairs that share a node are independent given them
    n, reps = 9, 3000
    w = GridGraphon(GRID3)
    iu, ju = np.triu_indices(n, k=1)
    hits = np.zeros((reps, len(iu)))
    probs = np.zeros((reps, len(iu)))
    for r in range(reps):
        g, u = generate(w, n, make_rng(r))
        adjacency = np.zeros((n, n))
        adjacency[g.edge_i, g.edge_j] = 1.0
        hits[r] = adjacency[iu, ju]
        cells = w.cell_of(u)
        probs[r] = GRID3[cells[iu], cells[ju]]
    assert np.abs(_standardized(hits, probs)).max() <= Z_BOUND
    first, second = zip(*[(a, b) for a in range(len(iu)) for b in range(a + 1, len(iu))
                          if {iu[a], ju[a]} & {iu[b], ju[b]}])
    first, second = list(first), list(second)
    assert len(first) == n * comb(n - 1, 2)
    joint = _standardized(hits[:, first] * hits[:, second], probs[:, first] * probs[:, second])
    assert np.abs(joint).max() <= Z_BOUND


def test_cell_pair_edge_counts_follow_the_grid():
    w = GridGraphon(GRID3)
    for seed in range(3):
        g, u = sample_w_random_graph(w, 420, make_rng(seed))
        assert g.edge_count >= 10_000
        cells = w.cell_of(u)
        sizes = np.bincount(cells, minlength=3)
        lo = np.minimum(cells[g.edge_i], cells[g.edge_j])
        hi = np.maximum(cells[g.edge_i], cells[g.edge_j])
        counts = np.zeros((3, 3), dtype=np.int64)
        np.add.at(counts, (lo, hi), 1)
        for a in range(3):
            for b in range(a, 3):
                pairs = comb(int(sizes[a]), 2) if a == b else int(sizes[a] * sizes[b])
                p = GRID3[a, b]
                if p in (0.0, 1.0):
                    assert counts[a, b] == pairs * p
                else:
                    z = (counts[a, b] - pairs * p) / np.sqrt(pairs * p * (1 - p))
                    assert abs(z) <= Z_BOUND, (seed, a, b, z)


def _rank(x: int, y: int) -> int:
    return y * (y - 1) // 2 + x


def test_triangular_unrank_is_a_bijection_for_every_cell_size_to_300():
    for size in range(2, 301):
        ranks = np.arange(comb(size, 2))
        x, y = graphon._unrank_pairs(ranks)
        assert np.all((0 <= x) & (x < y) & (y < size))
        assert np.array_equal(y * (y - 1) // 2 + x, ranks)


@pytest.mark.parametrize("power", [46, 47, 56, 60])
def test_triangular_unrank_is_exact_near_two_to_the(power):
    # C(2**24, 2) is just below 2**47: the pair count of one cell holding
    # UNLABELLED_NODE_LIMIT nodes. From 2**56 on, the float root alone
    # overshoots by one just below each row boundary.
    top = isqrt(2 << power)
    pairs = [(x, y) for y in range(top - 2, top + 3) for x in (0, 1, y // 2, y - 2, y - 1)]
    ranks = [_rank(x, y) for x, y in pairs]
    ranks += [(1 << power) + d for d in range(-3, 4)]
    ranks.append(comb(UNLABELLED_NODE_LIMIT, 2) - 1)
    x, y = graphon._unrank_pairs(np.array(ranks, dtype=np.int64))
    got = list(zip(x.tolist(), y.tolist()))
    assert got[:len(pairs)] == pairs
    assert all(0 <= a < b and _rank(a, b) == k for (a, b), k in zip(got, ranks))
    assert got[-1] == (UNLABELLED_NODE_LIMIT - 2, UNLABELLED_NODE_LIMIT - 1)


def test_generator_memory_is_linear_in_nodes_and_edges():
    # an array over all n(n-1)/2 = 2e8 pairs would take 1.6 GB; the bound,
    # fixed before the run, is 40 words per node and edge (measured: about 24)
    n = 20_000
    w, _ = two_block_graphon(0.0008, 0.0003)
    tracemalloc.start()
    try:
        g, _ = sample_w_random_graph(w, n, make_rng(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count > 100_000
    assert peak <= 40 * 8 * (n + g.edge_count)


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


def test_the_first_convergence_graph_does_not_reuse_the_base_stream(monkeypatch):
    latents = []

    def recording(w, n, rng):
        g, u = sample_w_random_graph(w, n, rng)
        latents.append(u)
        return g, u

    monkeypatch.setattr(graphon, "sample_w_random_graph", recording)
    w, sig = two_block_graphon(0.5, 0.2)
    convergence_experiment(w, sig, sizes=(40,), reps=1, base_seed=5)
    assert latents[0].tobytes() == child_rng(5, 3, 0, 0).random(40).tobytes()
    assert latents[0].tobytes() != make_rng(5).random(40).tobytes()


@pytest.mark.parametrize("sizes", [(10, 0), (-5,)])
def test_convergence_rejects_sizes_below_one_before_any_work(monkeypatch, sizes):
    def no_work(*args):
        raise AssertionError("a graph was generated before the sizes were checked")

    monkeypatch.setattr(graphon, "sample_w_random_graph", no_work)
    w, sig = two_block_graphon(0.5, 0.2)
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        convergence_experiment(w, sig, sizes=sizes, reps=2, base_seed=0)
