import dataclasses

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
from oracles import brute_edge_betweenness, dense_joint, edge_id, random_graph


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
