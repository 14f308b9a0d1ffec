import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsample import (
    BernoulliDesign,
    DegenerateSampleError,
    Graph,
    GraphSignal,
    SrsDesign,
    TracerouteDesign,
    draw_sample,
    edge_variation_values,
    estimate_metric,
    ht_total,
    ht_variance,
    inclusion_for,
    induced_subgraph,
)
from homsample.estimators import (
    HAJEK_RATIO,
    HT_TOTAL,
    KNOWN_DENOMINATOR,
    PLUG_IN,
    VARIANCE_CLAMPED,
    VARIANCE_EXACT,
    VARIANCE_UNSUPPORTED,
)
from homsample.metrics import dirichlet_energy, node_homophily
from oracles import (
    _reference_span_variance,
    dense_ht_variance,
    dense_joint,
    exact_ht_variance,
    random_graph,
    random_onehot_signal,
    srs_expectation,
    srs_subsets,
)


def _srs_enumeration(g, s, n_star, clamp=True):
    """Per-subset (ht, var_est) pairs plus the exact design variance."""
    design = SrsDesign(n_star=n_star)
    incl = inclusion_for(g, design)
    values = edge_variation_values(g, s)
    hts, var_ests = [], []
    for subset in srs_subsets(g.node_count, n_star):
        sample = induced_subgraph(g, subset)
        vals = values[sample.edge_index]
        hts.append(ht_total(sample, vals, incl))
        v, _ = ht_variance(sample, vals, incl, clamp_negative=clamp)
        var_ests.append(v)
    hts = np.array(hts)
    true_var = float(np.mean(hts ** 2) - np.mean(hts) ** 2)
    return hts, np.array(var_ests), true_var


def test_census_is_exact(karate):
    g, s = karate
    design = SrsDesign(n_star=g.node_count)
    incl = inclusion_for(g, design)
    sample = draw_sample(g, design, 4)
    values = edge_variation_values(g, s)[sample.edge_index]
    assert ht_total(sample, values, incl) == dirichlet_energy(g, s)
    assert estimate_metric(sample, s, "dirichlet_total", PLUG_IN).point == dirichlet_energy(g, s)
    var, status = ht_variance(sample, values, incl)
    assert var == 0.0 and status == VARIANCE_EXACT
    census = BernoulliDesign(p=1.0)
    sample = draw_sample(g, census, 4)
    values = edge_variation_values(g, s)[sample.edge_index]
    assert ht_variance(sample, values, inclusion_for(g, census)) == (0.0, VARIANCE_EXACT)


def test_k3_srs_worked_example(triangle):
    # subsets of size 2 yield HT values {0, 6, 6}: mean 4 = TV
    g, s = triangle
    design = SrsDesign(n_star=2)
    incl = inclusion_for(g, design)
    values = edge_variation_values(g, s)
    sample = induced_subgraph(g, [0, 2])
    assert ht_total(sample, values[sample.edge_index], incl) == pytest.approx(6.0)
    hts = [ht_total(sm, values[sm.edge_index], incl)
           for sm in (induced_subgraph(g, sub) for sub in srs_subsets(3, 2))]
    assert sorted(hts) == [0.0, 6.0, 6.0]
    assert np.mean(hts) == pytest.approx(4.0)


def test_k3_plug_in_expectation_matches_pi_scaling(triangle):
    g, s = triangle
    expect = srs_expectation(3, 2, lambda sub: estimate_metric(
        induced_subgraph(g, sub), s, "dirichlet_total", PLUG_IN).point)
    assert expect == pytest.approx(4.0 / 3.0)   # TV * pi with pi = 1/3
    assert estimate_metric(induced_subgraph(g, []), s, "dirichlet_total", PLUG_IN).point == 0.0


def test_star_variance_enumeration(star):
    g, s = star
    hts, var_ests, true_var = _srs_enumeration(g, s, 3)
    assert sorted(hts.tolist()) == [0.0, 4.0, 4.0, 8.0]
    assert sorted(var_ests.tolist()) == [0.0, 8.0, 8.0, 16.0]
    assert true_var == pytest.approx(8.0, abs=1e-12)
    assert np.mean(var_ests) == pytest.approx(true_var, abs=1e-12)


def test_bernoulli_identity_ht_is_scaled_plug_in(karate):
    g, s = karate
    values = edge_variation_values(g, s)
    for p in (0.2, 0.5, 0.9):
        design = BernoulliDesign(p=p)
        incl = inclusion_for(g, design)
        sample = draw_sample(g, design, 31)
        vals = values[sample.edge_index]
        assert ht_total(sample, vals, incl) == pytest.approx(
            estimate_metric(sample, s, "dirichlet_total", PLUG_IN).point / p ** 2, rel=1e-12)


def test_bernoulli_disjoint_pair_cross_term_is_zero():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    s = GraphSignal.from_labels([0, 1, 0, 1], 2)
    design = BernoulliDesign(p=0.6)
    incl = inclusion_for(g, design)
    sample = induced_subgraph(g, [0, 1, 2, 3])
    values = edge_variation_values(g, s)
    var, status = ht_variance(sample, values, incl)
    # independence: cross terms vanish, only diagonal terms remain
    expected = sum(v * v * (1 / 0.6 ** 4 - 1 / 0.6 ** 2) for v in values)
    assert var == pytest.approx(expected, rel=1e-12)
    assert status == VARIANCE_EXACT


def test_star_variance_has_only_three_span_pairs(star):
    g, s = star
    design = BernoulliDesign(p=0.6)
    values = edge_variation_values(g, s)
    sample = induced_subgraph(g, [0, 1, 2, 3])
    var, status = ht_variance(sample, values, inclusion_for(g, design))
    # every pair of distinct edges shares the center: joint p^3
    q, pi = (values ** 2).sum(), 0.6 ** 2
    expected = q * (1 / pi ** 2 - 1 / pi) + (values.sum() ** 2 - q) * (1 / pi ** 2 - 1 / 0.6 ** 3)
    assert var == pytest.approx(expected, rel=1e-12)
    assert status == VARIANCE_EXACT


def test_span_class_with_zero_joint_is_degenerate():
    # SRS with n* = 3 never holds two disjoint edges; a sample that does contradicts it
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    design = SrsDesign(n_star=3)
    sample = induced_subgraph(g, [0, 1, 2, 3])
    with pytest.raises(DegenerateSampleError, match="spanning 4 nodes have joint inclusion probability 0"):
        ht_variance(sample, np.ones(2), inclusion_for(g, design))


def test_variance_of_empty_sample(karate):
    g, _ = karate
    for design, expected in ((SrsDesign(n_star=1), (0.0, VARIANCE_EXACT)),
                             (BernoulliDesign(p=0.5), (0.0, VARIANCE_EXACT)),
                             (TracerouteDesign(1, 1), (None, VARIANCE_UNSUPPORTED))):
        empty = induced_subgraph(g, [])
        assert ht_variance(empty, np.array([]), inclusion_for(g, design)) == expected


def _assert_variance_matches_references(g, design, sample, values):
    """Span-sum variance against the dense double sum and the exact rational one."""
    incl = design.inclusion(g)
    got, status = ht_variance(sample, values, incl, clamp_negative=False)
    assert status == VARIANCE_EXACT
    if sample.edge_count == 0:
        assert got == 0.0
        return
    ids, pi = sample.edge_index, incl.pi[0]
    tol = 1e-12 * (np.abs(values).sum() / pi) ** 2
    joint = dense_joint(g, ids, incl.pi, incl.joint_by_span)
    assert abs(got - dense_ht_variance(values, incl.pi[ids], joint)) <= tol
    assert abs(Fraction(got) - exact_ht_variance(g, ids, values, pi, incl.joint_by_span)) <= tol


_VALUE = st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3))


@st.composite
def _induced_variance_cases(draw):
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [pair for pair, k in zip(pairs, keep) if k])
    seed = draw(st.integers(0, 2 ** 32))
    if draw(st.booleans()):
        design = BernoulliDesign(p=draw(st.floats(0.05, 1.0)))
    else:
        design = SrsDesign(n_star=draw(st.integers(1, n)))
    sample = draw_sample(g, design, seed)
    count = sample.edge_count
    values = np.array(draw(st.lists(_VALUE, min_size=count, max_size=count)), dtype=np.float64)
    return g, design, sample, values


@settings(max_examples=200, deadline=None)
@given(_induced_variance_cases())
def test_span_sum_variance_matches_dense_and_exact(case):
    _assert_variance_matches_references(*case)


def test_span_sum_variance_on_karate(karate):
    g, s = karate
    values = edge_variation_values(g, s)
    designs = ([BernoulliDesign(p) for p in (0.2, 0.5, 0.9)]
               + [SrsDesign(n) for n in (4, 10, 20, 33)])
    for design, k in itertools.product(designs, range(10)):
        sample = draw_sample(g, design, k)
        _assert_variance_matches_references(g, design, sample, values[sample.edge_index])


@pytest.mark.parametrize("n_star", [1, 2, 3])
def test_span_sum_variance_small_srs(n_star):
    # on K5 an SRS of n_star nodes holds every edge among them: no 4-span pair, j4 = 0
    g = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    rng = np.random.default_rng(n_star)
    design = SrsDesign(n_star=n_star)
    for seed in range(20):
        sample = draw_sample(g, design, seed)
        assert sample.edge_count == n_star * (n_star - 1) // 2
        _assert_variance_matches_references(g, design, sample, rng.normal(size=sample.edge_count))


def test_span_sum_variance_has_no_edge_limit():
    # 4465 sampled edges: more than a dense joint matrix may hold
    g = Graph.from_edges(100, [(i, j) for i in range(100) for j in range(i + 1, 100)])
    design = SrsDesign(n_star=95)
    sample = draw_sample(g, design, 1)
    values = np.arange(sample.edge_count, dtype=np.float64) % 3
    var, status = ht_variance(sample, values, design.inclusion(g), clamp_negative=False)
    assert sample.edge_count == 4465 and np.isfinite(var) and status == VARIANCE_EXACT


def test_span_sum_variance_squares_the_total_by_multiplication():
    # the total is 78.48650741311735, whose square glibc's pow rounds one ulp
    # above the correctly rounded t * t; two disjoint edges put it in D
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    sample = induced_subgraph(g, [0, 1, 2, 3])
    incl = SrsDesign(n_star=4).inclusion(g)
    values = np.array([70.0, 8.48650741311735])
    want = _reference_span_variance(g, sample.edge_index, values, incl.pi[sample.edge_index],
                                    incl, False)
    assert ht_variance(sample, values, incl, clamp_negative=False) == want


def test_an_overflowing_variance_is_not_clamped_to_zero():
    # 19 disjoint edges of value 2e153: Q is finite, but their total squares to inf
    # and SRS weighs D below 0, so the variance is -inf, not a rounding below 0
    k = 20
    g = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1, 1e153) for i in range(k)])
    sample = induced_subgraph(g, range(2 * k - 1))
    incl = SrsDesign(n_star=2 * k - 1).inclusion(g)
    values = np.full(sample.edge_count, 2e153)
    assert ht_variance(sample, values, incl) == (-np.inf, VARIANCE_EXACT)
    with pytest.raises(DegenerateSampleError,
                       match="^non-finite estimate for dirichlet_total/ht_total$"):
        estimate_metric(sample, GraphSignal.from_labels([0, 1] * k, 2), "dirichlet_total",
                        "ht_total", incl)


def test_hajek_reductions(triangle):
    g, s = triangle
    design = SrsDesign(n_star=2)
    incl = inclusion_for(g, design)
    values = edge_variation_values(g, s)
    sample = induced_subgraph(g, [0, 1])   # single same-label edge
    assert estimate_metric(sample, s, "edge_homophily", HAJEK_RATIO, incl).point == 1.0
    # uniform pi: ratio equals the unweighted sample ratio
    for sample in (induced_subgraph(g, [0, 2]), induced_subgraph(g, [0, 1, 2])):
        vals = values[sample.edge_index]
        edge_w = g.edge_w[sample.edge_index]
        point = estimate_metric(sample, s, "dirichlet_normalized", HAJEK_RATIO, incl).point
        assert point > 0 and point == pytest.approx(vals.sum() / (2 * edge_w.sum()))
    with pytest.raises(DegenerateSampleError, match="denominator"):
        empty = induced_subgraph(g, [])
        estimate_metric(empty, s, "edge_homophily", HAJEK_RATIO, incl)


def test_exhaustive_unbiasedness_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.55)
        if g.edge_count == 0:
            continue
        s = random_onehot_signal(rng, n, 2)
        tv = dirichlet_energy(g, s)
        for n_star in range(2, n + 1):
            # unclamped: the raw double-sum estimator is the unbiased one
            hts, var_ests, true_var = _srs_enumeration(g, s, n_star, clamp=False)
            assert np.mean(hts) == pytest.approx(tv, abs=1e-10)
            min_m = 4 if _has_disjoint_pair(g) else 3
            if g.edge_count == 1:
                min_m = 2
            if n_star >= min_m:
                assert np.mean(var_ests) == pytest.approx(true_var, abs=1e-10)


def _has_disjoint_pair(g):
    for e in range(g.edge_count):
        for f in range(e + 1, g.edge_count):
            if len({int(g.edge_i[e]), int(g.edge_j[e]),
                    int(g.edge_i[f]), int(g.edge_j[f])}) == 4:
                return True
    return False


def test_variance_negative_clamp_flagged():
    # Perfect matching under SRS: realized samples holding two disjoint
    # cross-label edges have dominant negative cross terms, so the raw
    # estimate goes negative and gets clamped with an explicit status.
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    s = GraphSignal.from_labels([0, 1, 0, 1, 0, 1], 2)
    design = SrsDesign(n_star=4)
    incl = inclusion_for(g, design)
    values = edge_variation_values(g, s)
    sample = induced_subgraph(g, [0, 1, 2, 3])   # two disjoint edges
    raw, _ = ht_variance(sample, values[sample.edge_index], incl, clamp_negative=False)
    # V = (2, 2), only 4-span pairs: pi = 2/5, j4 = 1/15, sum V^2 = 8 = sum over both orders
    assert raw == pytest.approx(8 * (1 / 0.4 ** 2 - 1 / 0.4) + 8 * (1 / 0.4 ** 2 - 15), rel=1e-12)
    assert raw < 0
    clamped, status = ht_variance(sample, values[sample.edge_index], incl)
    assert clamped == 0.0 and status == VARIANCE_CLAMPED
    # clamping is reporting policy; the raw estimator stays design-unbiased
    _, var_ests, true_var = _srs_enumeration(g, s, 4, clamp=False)
    assert np.mean(var_ests) == pytest.approx(true_var, abs=1e-10)


def test_variance_unsupported_for_traceroute(karate):
    g, s = karate
    design = TracerouteDesign(3, 3)
    incl = inclusion_for(g, design)
    sample = draw_sample(g, design, 8)
    values = edge_variation_values(g, s)[sample.edge_index]
    var, status = ht_variance(sample, values, incl)
    assert var is None and status == VARIANCE_UNSUPPORTED
    report = estimate_metric(sample, s, "dirichlet_total", HT_TOTAL, incl=incl)
    assert report.variance is None and report.variance_status == VARIANCE_UNSUPPORTED
    assert report.point > 0


def test_ht_rejects_missing_pi(karate):
    g, s = karate
    design = SrsDesign(n_star=10)
    sample = draw_sample(g, design, 2)
    incl = inclusion_for(g, design)
    values = edge_variation_values(g, s)[sample.edge_index]
    bad = dataclasses.replace(incl, pi=np.zeros(g.edge_count))
    with pytest.raises(ValueError, match="below the floor"):
        ht_total(sample, values, bad)


def test_estimate_metric_modes_and_validation(karate):
    g, s = karate
    design = SrsDesign(n_star=12)
    incl = inclusion_for(g, design)
    sample = draw_sample(g, design, 6)

    r = estimate_metric(sample, s, "dirichlet_normalized", KNOWN_DENOMINATOR, incl=incl)
    assert 0 <= r.point and r.variance is not None and r.variance_status == VARIANCE_EXACT
    r2 = estimate_metric(sample, s, "dirichlet_normalized", HAJEK_RATIO, incl=incl)
    assert r2.variance_status == VARIANCE_UNSUPPORTED
    r3 = estimate_metric(sample, s, "edge_homophily", PLUG_IN)
    assert 0 <= r3.point <= 1
    r4 = estimate_metric(sample, s, "node_homophily", PLUG_IN)
    assert 0 <= r4.point <= 1

    with pytest.raises(ValueError, match="not supported"):
        estimate_metric(sample, s, "node_homophily", HAJEK_RATIO, incl=incl)
    with pytest.raises(ValueError, match="inclusion model"):
        estimate_metric(sample, s, "dirichlet_total", HT_TOTAL)
    # the sample carries its parent; an edgeless parent has no known denominator
    edgeless = Graph.from_edges(3, [])
    empty = induced_subgraph(edgeless, [0, 1])
    with pytest.raises(ValueError, match="parent graph"):
        estimate_metric(empty, GraphSignal.from_labels([0, 0, 1], 2), "edge_homophily",
                        KNOWN_DENOMINATOR, incl=inclusion_for(edgeless, SrsDesign(n_star=2)))
    with pytest.raises(ValueError, match="unknown metric"):
        estimate_metric(sample, s, "assortativity", PLUG_IN)


@pytest.mark.parametrize("mode", [HAJEK_RATIO, KNOWN_DENOMINATOR, PLUG_IN])
def test_normalized_energy_of_a_feature_signal_is_refused(karate, mode):
    # as the exact metric refuses it; an estimate of it read 1.86 or 3.54, outside [0, 1]
    g, _ = karate
    features = GraphSignal(np.random.default_rng(0).normal(size=(g.node_count, 2)))
    design = BernoulliDesign(p=0.5)
    sample = draw_sample(g, design, 1)
    with pytest.raises(ValueError, match="^normalized energy is defined for labelled signals$"):
        estimate_metric(sample, features, "dirichlet_normalized", mode, design.inclusion(g))


def test_estimate_metric_census_recovers_exact(karate):
    g, s = karate
    design = SrsDesign(n_star=34)
    incl = inclusion_for(g, design)
    sample = draw_sample(g, design, 1)
    from homsample.metrics import edge_homophily, normalized_dirichlet

    pairs = [("dirichlet_normalized", HAJEK_RATIO, normalized_dirichlet(g, s)),
             ("edge_homophily", HAJEK_RATIO, edge_homophily(g, s)),
             ("node_homophily", PLUG_IN, node_homophily(g, s)),
             ("dirichlet_total", HT_TOTAL, dirichlet_energy(g, s))]
    for kind, mode, exact in pairs:
        r = estimate_metric(sample, s, kind, mode, incl=incl)
        assert r.point == pytest.approx(exact, rel=1e-12)


def test_node_homophily_plug_in_on_triangle(triangle):
    g, s = triangle
    sample = induced_subgraph(g, [0, 1, 2])
    r = estimate_metric(sample, s, "node_homophily", PLUG_IN)
    assert r.point == pytest.approx(node_homophily(g, s))
    with pytest.raises(DegenerateSampleError):
        estimate_metric(induced_subgraph(g, [0]), s, "node_homophily", PLUG_IN)


def test_report_provenance(karate):
    g, s = karate
    design = BernoulliDesign(p=0.4)
    incl = inclusion_for(g, design)
    sample = draw_sample(g, design, 55)
    r = estimate_metric(sample, s, "dirichlet_total", HT_TOTAL, incl=incl)
    d = vars(r)
    # how the sample was drawn is written by the command that drew it (test_cli)
    assert "design" not in d and "seed" not in d
    assert d["sampled_nodes"] == sample.node_count
    assert d["sampled_edges"] == sample.edge_count


@pytest.mark.parametrize("design", [BernoulliDesign(p=0.3), SrsDesign(n_star=12),
                                    TracerouteDesign(2, 2)], ids=["bernoulli", "srs", "traceroute"])
def test_one_sample_entry_points_agree_with_the_block_estimator(karate, design):
    # ht_total, ht_variance and estimate_metric each estimate the one-row block
    # of their sample: equal floats, and the same refusal of a pi below the floor
    g, s = karate
    incl = inclusion_for(g, design)
    for seed in range(300):
        sample = draw_sample(g, design, seed)
        values = edge_variation_values(g, s, sample.edge_index)
        report = estimate_metric(sample, s, "dirichlet_total", HT_TOTAL, incl)
        assert ht_total(sample, values, incl) == report.point
        assert ht_variance(sample, values, incl) == (report.variance, report.variance_status)
    sample = next(x for x in (draw_sample(g, design, seed) for seed in range(300))
                  if x.edge_count)
    low = dataclasses.replace(incl, pi=np.zeros(g.edge_count))
    values = edge_variation_values(g, s, sample.edge_index)
    with pytest.raises(DegenerateSampleError, match="below the floor") as info:
        estimate_metric(sample, s, "dirichlet_total", HT_TOTAL, low)
    entry_points = [ht_total] + [ht_variance] * incl.has_joint
    for entry_point in entry_points:
        with pytest.raises(DegenerateSampleError) as one:
            entry_point(sample, values, low)
        assert str(one.value) == str(info.value)
