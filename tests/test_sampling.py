import numpy as np
import pytest

from homsample import (
    BernoulliDesign,
    Graph,
    SrsDesign,
    TracerouteDesign,
    bernoulli_node_sample,
    draw_sample,
    induced_subgraph,
    make_rng,
    srs_node_sample,
)
from homsample.sampling import design_from_dict, design_to_dict, with_seed
from homsample.shortest_paths import path_dag, sample_path
from oracles import all_shortest_paths, random_graph


def _shortest_path(g, s, t, rng):
    """Node list of one uniform shortest s-t path, or None when t is unreachable."""
    res = sample_path(path_dag(g, s), t, rng)
    return None if res is None else res[0]


def test_bernoulli_p1_keeps_everything():
    g = Graph.from_edges(10, [(0, 1)])
    assert bernoulli_node_sample(g, 1.0, make_rng(0)).tolist() == list(range(10))


def test_bernoulli_concentration_coverage():
    # |V*|/n within 3 binomial sd of p for at least 99% of seeds
    g = Graph.from_edges(10_000, [(0, 1)])
    p, n = 0.5, 10_000
    band = 3 * np.sqrt(p * (1 - p) / n)
    hits = sum(
        abs(len(bernoulli_node_sample(g, p, make_rng(seed))) / n - p) <= band
        for seed in range(200)
    )
    assert hits / 200 >= 0.99


def test_bernoulli_determinism():
    g = Graph.from_edges(50, [(0, 1)])
    a = bernoulli_node_sample(g, 0.3, make_rng(42))
    b = bernoulli_node_sample(g, 0.3, make_rng(42))
    assert np.array_equal(a, b)


def test_srs_size_and_range():
    g = Graph.from_edges(6, [(0, 1)])
    assert srs_node_sample(g, 6, make_rng(1)).tolist() == list(range(6))
    sub = srs_node_sample(g, 3, make_rng(1))
    assert len(sub) == 3 and len(set(sub.tolist())) == 3
    for bad in (0, 7):
        with pytest.raises(ValueError):
            draw_sample(g, SrsDesign(n_star=bad, seed=1))


def test_srs_uniform_over_subsets():
    g = Graph.from_edges(3, [(0, 1)])
    rng = make_rng(7)
    counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    draws = 60_000
    for _ in range(draws):
        counts[tuple(srs_node_sample(g, 2, rng))] += 1
    for c in counts.values():
        assert abs(c / draws - 1 / 3) <= 0.01


def test_induced_subgraph_cases(triangle):
    g, _ = triangle
    full = induced_subgraph(g, [0, 1, 2])
    assert full.edge_count == g.edge_count
    # nodes {0, 2} of the (a, a, b) triangle leave the single cross edge
    sub = induced_subgraph(g, [0, 2])
    assert list(zip(g.edge_i[sub.edge_index], g.edge_j[sub.edge_index])) == [(0, 2)]
    assert induced_subgraph(g, []).edge_count == 0
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(g, [0, 5])


def test_induced_closure_property():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, 0.4)
        nodes = np.nonzero(rng.random(n) < 0.5)[0]
        sample = induced_subgraph(g, nodes)
        chosen = set(nodes.tolist())
        # no sampled edge leaves V*; no parent edge inside V* is missing
        for i, j in zip(g.edge_i[sample.edge_index], g.edge_j[sample.edge_index]):
            assert i in chosen and j in chosen
        expected = sum(1 for i, j in zip(g.edge_i, g.edge_j) if i in chosen and j in chosen)
        assert sample.edge_count == expected


def test_random_shortest_path_unique_cases():
    g = Graph.from_edges(2, [(0, 1)])
    assert _shortest_path(g, 0, 1, make_rng(0)) == [0, 1]
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _shortest_path(path, 0, 3, make_rng(0)) == [0, 1, 2, 3]
    # s = t is the trivial path with no edges; the traceroute design skips such pairs
    assert sample_path(path_dag(g, 1), 1, make_rng(0)) == ([1], [])
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert _shortest_path(disconnected, 0, 3, make_rng(0)) is None


def test_random_shortest_path_uniform_on_cycle():
    # 4-cycle, opposite corners: two shortest paths, each picked half the time
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rng = make_rng(19)
    via1 = sum(_shortest_path(g, 0, 2, rng)[1] == 1 for _ in range(10_000))
    assert abs(via1 / 10_000 - 0.5) <= 0.02


def test_random_shortest_path_minimal_and_simple():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(4, 25))
        g = random_graph(rng, n, 0.3)
        s, t = rng.choice(n, 2, replace=False)
        oracle = all_shortest_paths(g, int(s), int(t))
        drawn = _shortest_path(g, int(s), int(t), make_rng(int(rng.integers(1 << 30))))
        if not oracle:
            assert drawn is None
            continue
        assert len(drawn) == len(oracle[0])          # minimal hop length
        assert len(set(drawn)) == len(drawn)         # simple
        assert tuple(drawn) in oracle


def test_traceroute_star_two_hop():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # leaf-to-leaf paths must pass through the center
    path = _shortest_path(g, 1, 2, make_rng(0))
    assert path == [1, 0, 2]
    sample = TracerouteDesign(4, 4).realize(g, make_rng(5))
    assert sample.edge_count == 3                    # tree: full coverage at n_S = n_T = n


def test_traceroute_tree_coverage():
    rng = np.random.default_rng(37)
    # random tree via random attachment
    n = 12
    edges = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    g = Graph.from_edges(n, edges)
    sample = TracerouteDesign(n, n).realize(g, make_rng(2))
    assert sample.edge_count == g.edge_count         # every tree edge separates some pair


def test_traceroute_source_equals_target_skipped():
    g = Graph.from_edges(1, [])
    sample = TracerouteDesign(1, 1).realize(g, make_rng(0))
    assert sample.edge_count == 0 and sample.node_count == 0


def test_traceroute_paths_recorded(karate):
    g, _ = karate
    sample = TracerouteDesign(3, 3).realize(g, make_rng(11))
    assert sample.paths is not None and len(sample.paths) >= 1
    dist_ok = all(len(p) == len(set(p)) for p in sample.paths)
    assert dist_ok
    assert sample.meta["skipped_pairs"] == 0
    ids = sample.edge_index
    assert set(np.concatenate([g.edge_i[ids], g.edge_j[ids]]).tolist()) == set(sample.nodes.tolist())


@pytest.mark.parametrize("design", [
    BernoulliDesign(p=0.4, seed=123),
    SrsDesign(n_star=10, seed=123),
    TracerouteDesign(n_sources=3, n_targets=4, seed=123),
])
def test_draw_sample_deterministic(design, karate):
    g, _ = karate
    a = draw_sample(g, design)
    b = draw_sample(g, design)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.edge_index, b.edge_index)
    assert a.paths == b.paths
    c = draw_sample(g, with_seed(design, 124))
    assert not (np.array_equal(a.nodes, c.nodes) and np.array_equal(a.edge_index, c.edge_index))


def test_design_dict_roundtrip():
    for design in (BernoulliDesign(0.2, seed=9), SrsDesign(5, seed=9),
                   TracerouteDesign(2, 3, seed=9)):
        assert design_from_dict(design_to_dict(design)) == design
    with pytest.raises(ValueError, match="unknown design"):
        design_from_dict({"kind": "snowball"})


def test_design_validation(karate):
    g, _ = karate
    with pytest.raises(ValueError):
        draw_sample(g, BernoulliDesign(p=0.0))
    with pytest.raises(ValueError):
        draw_sample(g, SrsDesign(n_star=35))
    with pytest.raises(ValueError):
        draw_sample(g, TracerouteDesign(n_sources=0, n_targets=3))


def test_sample_json_shape(karate):
    g, _ = karate
    sample = draw_sample(g, SrsDesign(n_star=8, seed=3))
    d = sample.to_json_dict()
    assert d["design"]["kind"] == "srs" and d["seed"] == 3
    assert len(d["edges"]) == sample.edge_count
    assert all(e["pi"] is None for e in d["edges"])
