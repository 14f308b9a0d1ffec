from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homsample import (
    Graph,
    GraphSignal,
    dirichlet_energy,
    edge_homophily,
    edge_variation_values,
    exact_metric,
    node_homophily,
    normalized_dirichlet,
)
from homsample.estimators import estimate_metric
from homsample.metrics import (
    DIRICHLET_NORMALIZED,
    METRIC_KINDS,
    homophily_profile,
    node_sums,
    same_label_weight_values,
)
from homsample.sampling import SampledGraph
from oracles import (
    dense_laplacian_tv,
    edge_id,
    random_graph,
    random_onehot_signal,
    reference_node_sums,
    signal_rows,
)


def test_edge_variation_cases():
    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 3.0)])
    s = GraphSignal.from_labels([0, 0, 1], 2)
    values = edge_variation_values(g, s)
    assert values[edge_id(g, 0, 1)] == 0.0               # equal one-hots
    assert values[edge_id(g, 2, 1)] == 6.0               # w=3, ||e_a - e_b||^2 = 2
    with pytest.raises(KeyError):
        edge_id(g, 0, 2)
    edges = zip(g.edge_i.tolist(), g.edge_j.tolist())
    assert dict(zip(edges, values.tolist())) == {(0, 1): 0.0, (1, 2): 6.0}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14), classes=st.integers(1, 5))
def test_labelled_edge_variation_is_the_rows_variation_bitwise(seed, n, classes):
    # a labelled signal's kernel reads its labels, never an (edges, classes) array
    rng = np.random.default_rng(seed)
    edges = random_graph(rng, n, 0.6)
    g = Graph.from_arrays(n, edges.edge_i, edges.edge_j,
                          rng.lognormal(0.0, 50.0, size=edges.edge_count))
    s = random_onehot_signal(rng, n, classes)
    ids = rng.permutation(g.edge_count)[:g.edge_count // 2]
    for edge_ids in (None, ids):
        got = edge_variation_values(g, s, edge_ids)
        want = edge_variation_values(g, GraphSignal(signal_rows(s)), edge_ids)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dirichlet_energy_hand_cases(triangle, star):
    g, s = triangle
    assert dirichlet_energy(g, s) == 4.0                # 0 + 2 + 2
    g, s = star
    assert dirichlet_energy(g, s) == 4.0                # 0 + 2 + 2


def test_constant_signal_has_zero_energy():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    s = GraphSignal(np.ones((4, 3)))
    assert dirichlet_energy(g, s) == 0.0


def test_dimension_mismatch():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="rows"):
        dirichlet_energy(g, GraphSignal.from_labels([0, 1], 2))


def test_normalized_dirichlet(triangle):
    g, s = triangle
    assert normalized_dirichlet(g, s) == pytest.approx(4 / 6, abs=1e-15)
    with pytest.raises(ValueError, match="no edges"):
        normalized_dirichlet(Graph.from_edges(2, []), GraphSignal.from_labels([0, 1], 2))


def test_edge_homophily(triangle):
    g, s = triangle
    assert edge_homophily(g, s) == pytest.approx(1 / 3, abs=1e-15)


def test_node_homophily(triangle, path3):
    g, s = triangle
    assert node_homophily(g, s) == pytest.approx(1 / 3, abs=1e-15)
    g, s = path3
    assert node_homophily(g, s) == pytest.approx(0.5, abs=1e-15)


def test_node_homophily_excludes_isolated_nodes():
    g = Graph.from_edges(4, [(0, 1)])                   # nodes 2, 3 isolated
    s = GraphSignal.from_labels([0, 0, 1, 1], 2)
    assert node_homophily(g, s) == 1.0
    with pytest.raises(ValueError, match="no edges"):
        node_homophily(Graph.from_edges(2, []), GraphSignal.from_labels([0, 1], 2))


def test_karate_matches_published_table(karate):
    g, s = karate
    assert normalized_dirichlet(g, s) == pytest.approx(0.1082, abs=5e-4)
    assert edge_homophily(g, s) == pytest.approx(0.8918, abs=5e-4)
    assert node_homophily(g, s) == pytest.approx(0.8882, abs=5e-4)


def test_normalized_plus_edge_homophily_is_one(karate):
    rng = np.random.default_rng(5)
    cases = [karate]
    for _ in range(10):
        n = int(rng.integers(3, 40))
        g = random_graph(rng, n, p=0.4, weighted=bool(rng.integers(2)))
        if g.edge_count == 0:
            continue
        cases.append((g, random_onehot_signal(rng, n, classes=int(rng.integers(2, 5)))))
    for g, s in cases:
        assert normalized_dirichlet(g, s) + edge_homophily(g, s) == pytest.approx(1.0, abs=1e-12)


def test_energy_invariant_under_relabeling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        g = random_graph(rng, n, p=0.5, weighted=True)
        s = random_onehot_signal(rng, n, 3)
        perm = rng.permutation(n)
        g2 = Graph.from_arrays(n, perm[g.edge_i], perm[g.edge_j], g.edge_w)
        rows = signal_rows(s)
        rows2 = np.empty_like(rows)
        rows2[perm] = rows
        s2 = GraphSignal(rows2, None)
        assert dirichlet_energy(g2, s2) == pytest.approx(dirichlet_energy(g, s), rel=1e-12)


def test_energy_scaling_in_weights():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 12, p=0.5, weighted=True)
    s = random_onehot_signal(rng, 12, 2)
    g2 = Graph.from_arrays(12, g.edge_i, g.edge_j, 2.5 * g.edge_w)
    assert dirichlet_energy(g2, s) == pytest.approx(2.5 * dirichlet_energy(g, s), rel=1e-12)
    assert normalized_dirichlet(g2, s) == pytest.approx(normalized_dirichlet(g, s), rel=1e-12)


def test_energy_matches_dense_laplacian_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, p=0.3, weighted=True)
        s = random_onehot_signal(rng, n, int(rng.integers(2, 6)))
        tv = dirichlet_energy(g, s)
        oracle = dense_laplacian_tv(g, s)
        assert tv == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_arbitrary_real_features_allowed_for_energy_only():
    g = Graph.from_edges(2, [(0, 1)])
    s = GraphSignal(np.array([[0.3, 1.2], [1.0, -0.5]]))
    d = s.rows[0] - s.rows[1]
    assert dirichlet_energy(g, s) == pytest.approx(d @ d)
    for fn in (edge_homophily, node_homophily, normalized_dirichlet):
        with pytest.raises(ValueError, match="label|one-hot"):
            fn(g, s)


def test_profile_and_exact_metric(karate):
    g, s = karate
    profile = homophily_profile(g, s)
    assert tuple(profile) == METRIC_KINDS
    assert profile["dirichlet_total"] == 50.0
    assert exact_metric(g, s, "edge_homophily") == profile["edge_homophily"]
    with pytest.raises(ValueError, match="unknown metric"):
        exact_metric(g, s, "modularity")


NEEDS_LABELS = "^normalized energy is defined for labelled signals$"


def test_normalized_energy_refuses_a_feature_signal(karate):
    g, _ = karate
    features = GraphSignal(np.random.default_rng(3).normal(size=(g.node_count, 2)))
    # the total weight of this graph overflows: the refusal comes before it is read
    heavy = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    cases = [(g, features), (heavy, GraphSignal(np.eye(3)))]
    for metric in (normalized_dirichlet, partial(exact_metric, kind=DIRICHLET_NORMALIZED)):
        for graph, signal in cases:
            with pytest.raises(ValueError, match=NEEDS_LABELS):
                metric(graph, signal)
    with pytest.raises(ValueError, match=NEEDS_LABELS):
        homophily_profile(g, features)


PUBLIC_METRICS = {"dirichlet_total": dirichlet_energy,
                  "dirichlet_normalized": normalized_dirichlet,
                  "edge_homophily": edge_homophily, "node_homophily": node_homophily}


def _value_or_refusal(metric, g, s):
    try:
        return np.float64(metric(g, s)).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14), classes=st.integers(1, 5),
       weighted=st.booleans())
def test_exact_metric_of_each_kind_is_its_public_function_bitwise(karate, seed, n, classes,
                                                                  weighted):
    assert set(PUBLIC_METRICS) == set(METRIC_KINDS)
    rng = np.random.default_rng(seed)
    # a graph with no edges is refused alike
    drawn = (random_graph(rng, n, 0.4, weighted), random_onehot_signal(rng, n, classes))
    for g, s in (karate, drawn):
        for kind, metric in PUBLIC_METRICS.items():
            assert _value_or_refusal(partial(exact_metric, kind=kind), g, s) == \
                _value_or_refusal(metric, g, s)


@pytest.mark.parametrize("kind", ["dirichlet_total", "dirichlet_normalized", "edge_homophily"])
def test_an_overflowing_total_edge_weight_is_refused_by_name(kind):
    # 1e308 + 1e308 is inf: the normalized metrics would read nan and 0.0
    g = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (2, 0, 1.0)])
    s = GraphSignal.from_labels([0, 1, 0], 2)
    with np.errstate(all="raise"), pytest.raises(
            ValueError, match=f"^{kind} is undefined: the total edge weight overflows float64"):
        exact_metric(g, s, kind)
    assert exact_metric(g, s, "node_homophily") == 1 / 3   # counts, not weights


def test_edge_variation_values_nonnegative_random():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 15, p=0.5, weighted=True)
    s = GraphSignal(rng.normal(size=(15, 4)))
    v = edge_variation_values(g, s)
    assert np.all(v >= 0)


def test_kernels_on_edge_subsets_match_subgraphs():
    # the subset form equals the full-graph values indexed, and node homophily
    # on a subset equals node homophily of the subgraph those edges form
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, p=0.4, weighted=True)
        s = random_onehot_signal(rng, n, 3)
        ids = np.nonzero(rng.random(g.edge_count) < 0.5)[0]
        assert np.array_equal(edge_variation_values(g, s, ids), edge_variation_values(g, s)[ids])
        assert np.array_equal(same_label_weight_values(g, s, ids),
                              same_label_weight_values(g, s)[ids])
        if len(ids):
            sub = Graph.from_arrays(n, g.edge_i[ids], g.edge_j[ids], g.edge_w[ids])
            sample = SampledGraph(g, np.arange(n), ids)
            assert estimate_metric(sample, s, "node_homophily", "plug_in").point == \
                node_homophily(sub, s)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14), data=st.data())
def test_node_sums_match_the_sorting_reference_bitwise(seed, n, data):
    # several rows, each an edge subset of its own (an empty one included),
    # against the reference on each row alone
    g = random_graph(np.random.default_rng(seed), n=n, p=0.5)
    rows = [np.flatnonzero(np.array(data.draw(st.lists(
        st.booleans(), min_size=g.edge_count, max_size=g.edge_count)), dtype=bool))
        for _ in range(data.draw(st.integers(1, 4)))]
    rows.insert(data.draw(st.integers(0, len(rows))), np.array([], dtype=np.int64))
    ids = np.concatenate(rows)
    values = np.array(data.draw(st.lists(
        st.floats(-1e9, 1e9, allow_subnormal=False), min_size=len(ids), max_size=len(ids))),
        dtype=np.float64)
    sums, counts, per_row = node_sums(g, ids, [len(r) for r in rows], values)
    want = [reference_node_sums(g.edge_i[r], g.edge_j[r], v)
            for r, v in zip(rows, np.split(values, np.cumsum([len(r) for r in rows])[:-1]))]
    assert per_row.tolist() == [len(c) for _, c in want]
    for got, parts in ((sums, [w for w, _ in want]), (counts, [c for _, c in want])):
        expected = np.concatenate(parts)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
