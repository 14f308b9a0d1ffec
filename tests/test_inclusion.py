import dataclasses
from fractions import Fraction
from math import perm

import numpy as np
import pytest

from homsample import (
    BernoulliDesign,
    Graph,
    SrsDesign,
    TracerouteDesign,
    approx_pi_traceroute,
    edge_betweenness,
    empirical_pi,
    ht_total,
    induced_subgraph,
    inclusion_for,
)
from homsample import sampling, shortest_paths
from homsample.rng import make_rng
from oracles import (
    brute_edge_betweenness,
    dense_joint,
    edge_id,
    random_graph,
    reference_edge_counts,
    reference_empirical_pi,
)

# max |z| over the edges of a graph, the oracle against the per-replication
# reference: P(|Z| > 4.5) is 6.8e-6, so about 5e-4 family-wise over 78 edges
# when both estimate the same pi
ORACLE_Z_BOUND = 4.5


def k_n(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def joint(g, model, e, f):
    """Joint inclusion probability of edges e and f of g (pi_e when e == f)."""
    ids = [e, f] if e != f else [e]
    return float(dense_joint(g, ids, model.pi, model.joint_by_span)[0, -1])


def edge_joint(g, design, e, f):
    """Analytic joint inclusion probability of two edges given by endpoints."""
    return joint(g, inclusion_for(g, design), edge_id(g, *e), edge_id(g, *f))


def test_analytic_pi_bernoulli():
    g = k_n(4)
    pi = BernoulliDesign(p=0.3).inclusion(g).pi
    assert np.allclose(pi, 0.09) and len(pi) == g.edge_count


def test_analytic_pi_srs():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert np.allclose(SrsDesign(n_star=2).inclusion(g).pi, 1 / 3)
    assert np.allclose(SrsDesign(n_star=3).inclusion(g).pi, 1.0)  # census


def test_analytic_joint_bernoulli():
    g = k_n(5)
    d = BernoulliDesign(p=0.5)
    assert edge_joint(g, d, (0, 1), (0, 1)) == 0.25      # same edge
    assert edge_joint(g, d, (0, 1), (1, 2)) == 0.125     # share one node
    assert edge_joint(g, d, (0, 1), (2, 3)) == 0.0625    # disjoint


def test_analytic_joint_srs():
    g = k_n(4)
    d = SrsDesign(n_star=3)
    assert edge_joint(g, d, (0, 1), (1, 2)) == pytest.approx(1 / 4)
    assert edge_joint(g, d, (0, 1), (2, 3)) == 0.0       # needs 4 sampled nodes


def test_joint_by_span_matches_power_table():
    # the Bernoulli table is numpy's array power, entry for entry
    for p in np.random.default_rng(61).random(200):
        table = BernoulliDesign(p=float(p)).inclusion(k_n(3)).joint_by_span
        assert np.array_equal(table, float(p) ** np.arange(5.0))


@pytest.mark.parametrize("n,n_star", [(1, 1), (5, 2), (34, 10), (4000, 1200), (200_000, 100_000)])
def test_srs_joints_are_correctly_rounded_ratios(n, n_star):
    # n_star (n_star - 1) ... / n (n - 1) ..., each ratio rounded once
    g = Graph.from_arrays(n, [0], [1]) if n > 1 else Graph.from_arrays(n, [], [])
    incl = SrsDesign(n_star=n_star).inclusion(g)
    want = [float(Fraction(perm(n_star, k), perm(n, k))) if perm(n, k) else 0.0
            for k in range(5)]
    assert incl.joint_by_span.tobytes() == np.array(want).tobytes()
    assert incl.pi.tolist() == want[2:3] * g.edge_count


def test_joint_diag_equals_pi():
    g = k_n(4)
    for design in (BernoulliDesign(0.4), SrsDesign(3)):
        model = inclusion_for(g, design)
        for e in range(g.edge_count):
            assert joint(g, model, e, e) == pytest.approx(model.pi[e], rel=1e-15)


def test_bernoulli_independence_structure():
    g = k_n(5)
    model = inclusion_for(g, BernoulliDesign(p=0.37))
    disjoint = (edge_id(g, 0, 1), edge_id(g, 2, 3))
    shared = (edge_id(g, 0, 1), edge_id(g, 1, 2))
    # node-disjoint edges are independent; shared-node pairs positively associated
    assert joint(g, model, *disjoint) == pytest.approx(model.pi[disjoint[0]] * model.pi[disjoint[1]], rel=1e-15)
    assert joint(g, model, *shared) >= model.pi[shared[0]] * model.pi[shared[1]]


def test_srs_association_structure():
    # Without-replacement sampling is negatively associated for node-DISJOINT
    # edge pairs (strictly, for 0 < n_star < n). Shared-node pairs need not
    # be: conditioning on one edge makes the shared node certain, so the
    # association can flip positive (n=6, n_star=4 below) or vanish
    # (n=4, n_star=3).
    for n, n_star in [(4, 3), (5, 2), (6, 4), (7, 5)]:
        g = k_n(n)
        model = inclusion_for(g, SrsDesign(n_star))
        for e in range(g.edge_count):
            for f in range(e + 1, g.edge_count):
                endpoints = {int(g.edge_i[e]), int(g.edge_j[e]),
                             int(g.edge_i[f]), int(g.edge_j[f])}
                if len(endpoints) == 4:
                    assert joint(g, model, e, f) < model.pi[e] * model.pi[f]
    k6, k4 = k_n(6), k_n(4)
    shared = inclusion_for(k6, SrsDesign(4))
    assert joint(k6, shared, 0, 1) == pytest.approx(0.2)          # edges (0,1), (0,2)
    assert joint(k6, shared, 0, 1) > shared.pi[0] * shared.pi[1]  # positive association
    borderline = inclusion_for(k4, SrsDesign(3))
    assert joint(k4, borderline, 0, 1) == pytest.approx(borderline.pi[0] * borderline.pi[1])


def test_edge_betweenness_hand_cases():
    assert edge_betweenness(Graph.from_edges(2, [(0, 1)])).tolist() == [2.0]
    assert edge_betweenness(Graph.from_edges(3, [(0, 1), (1, 2)])).tolist() == [4.0, 4.0]
    assert np.allclose(edge_betweenness(k_n(4)), 2.0)


def test_edge_betweenness_matches_enumeration_oracle():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(3, 14))
        g = random_graph(rng, n, 0.45)
        if g.edge_count == 0:
            continue
        assert np.allclose(edge_betweenness(g), brute_edge_betweenness(g), rtol=1e-9)


def test_edge_betweenness_matches_networkx(karate):
    nx = pytest.importorskip("networkx")
    from homsample.graphon import sample_w_random_graph, two_block_graphon

    w, _ = two_block_graphon(0.13, 0.05)
    wrandom, _ = sample_w_random_graph(w, 200, np.random.default_rng([5, 0]))
    for g in (karate[0], wrandom):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.node_count))
        nxg.add_edges_from(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        want = np.zeros(g.edge_count)
        for (u, v), value in nx.edge_betweenness_centrality(nxg, normalized=False).items():
            want[edge_id(g, u, v)] = 2 * value   # networkx counts each unordered pair once
        np.testing.assert_allclose(edge_betweenness(g), want, rtol=1e-12)


def test_betweenness_total_equals_distance_sum(karate):
    g, _ = karate
    b = edge_betweenness(g)
    # each ordered reachable pair contributes its hop distance
    from oracles import all_shortest_paths

    total = 0
    for s in range(g.node_count):
        for t in range(g.node_count):
            if s != t:
                paths = all_shortest_paths(g, s, t)
                if paths:
                    total += len(paths[0]) - 1
    assert b.sum() == pytest.approx(total, rel=1e-9)


def test_approx_pi_traceroute_formula():
    pi = approx_pi_traceroute(np.array([0.0, 2.0, 1e9]), 5, 5, 5)  # n_S = n_T = n
    assert pi[0] == 0.0                          # unsampleable flag
    assert pi[1] == pytest.approx(1 - np.exp(-2.0), rel=1e-12)
    assert pi[2] == pytest.approx(1.0)           # saturation


def test_empirical_pi_census():
    g = k_n(4)
    model = empirical_pi(g, BernoulliDesign(p=1.0, seed=1), replications=50)
    assert np.all(model.pi == 1.0)


def test_empirical_pi_matches_analytic_bernoulli(karate):
    g, _ = karate
    R = 100_000
    model = empirical_pi(g, BernoulliDesign(p=0.5, seed=77), replications=R)
    dev = np.abs(model.pi - 0.25)
    assert dev.max() <= 0.01
    assert dev.max() <= 4 * np.sqrt(0.25 * 0.75 / R)


def test_empirical_pi_matches_analytic_srs():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 10, 0.5)
    R = 100_000
    design = SrsDesign(n_star=4, seed=5)
    model = empirical_pi(g, design, replications=R)
    target = design.inclusion(g).pi[0]
    assert np.abs(model.pi - target).max() <= 4 * np.sqrt(target * (1 - target) / R)


def test_empirical_pi_is_deterministic():
    g = k_n(5)
    d = SrsDesign(n_star=3, seed=21)
    a = empirical_pi(g, d, 500)
    b = empirical_pi(g, d, 500)
    assert np.array_equal(a.pi, b.pi)


def test_empirical_joint_diag_and_flags():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    model = empirical_pi(g, SrsDesign(n_star=2, seed=9), replications=2000)
    assert not model.has_joint  # the oracle estimates pi only
    never = empirical_pi(g, BernoulliDesign(p=1e-9, seed=9), replications=50)
    assert np.all(never.pi == 0)


def oracle_z(fast, slow, r_fast, r_slow):
    """Per-edge two-sample z of two inclusion frequency vectors."""
    pooled = (fast * r_fast + slow * r_slow) / (r_fast + r_slow)
    se = np.sqrt(pooled * (1 - pooled) * (1 / r_fast + 1 / r_slow))
    assert np.all((se > 0) | (fast == slow))
    return np.abs(fast - slow) / np.where(se > 0, se, 1.0)


@pytest.mark.parametrize("n_s, n_t", [(1, 1), (3, 3)])
def test_traceroute_oracle_agrees_with_per_replication_reference(karate, n_s, n_t):
    g, _ = karate
    R = 20_000
    fast = empirical_pi(g, TracerouteDesign(n_s, n_t, seed=11), R).pi
    slow = reference_empirical_pi(g, TracerouteDesign(n_s, n_t, seed=12), R).pi
    assert oracle_z(fast, slow, R, R).max() <= ORACLE_Z_BOUND


def test_traceroute_oracle_agrees_with_reference_across_components():
    # a 5-cycle with a chord and a 4-node path: cross pairs are unreachable
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3),
                             (5, 6), (6, 7), (7, 8)])
    R = 20_000
    for n_s, n_t in ((1, 1), (2, 3)):
        fast = empirical_pi(g, TracerouteDesign(n_s, n_t, seed=21), R).pi
        slow = reference_empirical_pi(g, TracerouteDesign(n_s, n_t, seed=22), R).pi
        assert np.all(fast > 0)
        assert oracle_z(fast, slow, R, R).max() <= ORACLE_Z_BOUND


def test_traceroute_oracle_does_not_depend_on_the_dag_cache(monkeypatch, karate):
    kg, _ = karate
    design = TracerouteDesign(3, 2, seed=8)
    want = empirical_pi(Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w), design, 3000)
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", 0)
    g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    got = empirical_pi(g, design, 3000)
    assert g._sp_cache == {} and got.pi.tobytes() == want.pi.tobytes()


@pytest.mark.parametrize("design", [BernoulliDesign(p=0.4, seed=3), SrsDesign(n_star=12, seed=4)])
def test_induced_oracle_counts_successive_realizations_on_one_stream(karate, design):
    g, _ = karate
    rng = make_rng(design.seed)
    counts = np.zeros(g.edge_count)
    for _ in range(300):
        counts[design.realize(g, rng).edge_index] += 1
    assert empirical_pi(g, design, 300).pi.tobytes() == (counts / 300).tobytes()


@pytest.mark.parametrize("design", [BernoulliDesign(p=0.3, seed=6), SrsDesign(n_star=10, seed=7)])
def test_induced_oracle_blocks_match_the_per_realization_loop(monkeypatch, karate, design):
    # 2,000 bytes hold 7 rows of karate's masks (n + 3m = 268 bytes a row), so 501
    # realizations span 72 blocks, the last one partial
    g, _ = karate
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 2000)
    got = design.edge_counts(g, make_rng(design.seed), 501)
    want = reference_edge_counts(g, design, make_rng(design.seed), 501)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert empirical_pi(g, design, 501).pi.tobytes() == (want / 501).tobytes()


def test_oracle_on_a_graph_without_nodes_is_empty():
    g = Graph.from_edges(0, [])
    model = empirical_pi(g, BernoulliDesign(p=0.5), 50)
    assert model.pi.shape == (0,) and model.source == "empirical:bernoulli"


@pytest.mark.parametrize("design", [BernoulliDesign(p=0.5), SrsDesign(n_star=2),
                                    TracerouteDesign(2, 2)])
def test_oracle_on_a_graph_without_edges_is_empty(design):
    g = Graph.from_edges(4, [])
    model = empirical_pi(g, design, 50)
    assert model.pi.shape == (0,) and model.source == f"empirical:{design.kind}"


def test_zero_pi_directs_to_oracle():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    model = inclusion_for(g, TracerouteDesign(1, 1))
    zeroed = dataclasses.replace(model, pi=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="empirical"):
        ht_total(induced_subgraph(g, [0, 1, 2]), np.ones(2), zeroed)


def test_inclusion_for_traceroute_has_no_joint(karate):
    g, _ = karate
    model = inclusion_for(g, TracerouteDesign(3, 3))
    assert not model.has_joint
    assert np.all(model.pi > 0)  # every karate edge lies on its endpoints' path
    assert model.source == "traceroute-approx" and len(model.pi) == g.edge_count
