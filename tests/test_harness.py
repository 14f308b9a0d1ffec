import dataclasses
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from homsample import (
    Graph,
    GraphSignal,
    SrsDesign,
    graphon,
    harness,
    inclusion,
    karate_manifest_path,
    shortest_paths,
)
from homsample.estimators import DegenerateSampleError, SweepColumns, estimate_metric
from homsample.harness import (
    ExperimentConfig,
    _replicate_block,
    histogram,
    resolve_design,
    run_experiment,
    summarize,
    write_estimates_csv,
    write_histogram_csv,
    write_summary_csv,
)
from homsample.rng import derive_seed, make_rng
from homsample.sampling import design_from_dict, draw_sample, with_seed
from oracles import ReferenceColumns, random_graph, random_onehot_signal, reference_replicate

# a vectorized division over invalid rows that warned would add bytes to stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _karate_cfg(**overrides):
    base = dict(
        dataset=str(karate_manifest_path()),
        design={"kind": "srs", "n_star": 12},
        metrics=(("dirichlet_normalized", "known_denominator"),),
        replications=40,
        base_seed=101,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_without_metrics_is_rejected():
    # nothing to estimate: every sample would be drawn and every summary output be empty
    with pytest.raises(ValueError, match="metrics"):
        _karate_cfg(metrics=())


def test_config_with_a_repeated_metric_pair_is_rejected():
    # both estimates would land under one key, the second overwriting the first
    pair = ("edge_homophily", "hajek_ratio")
    with pytest.raises(ValueError, match="edge_homophily:hajek_ratio"):
        _karate_cfg(metrics=(pair, ("node_homophily", "plug_in"), pair))


def test_histogram_basics():
    edges, counts = histogram([3.0] * 7, bins=5)
    assert len(counts) == 1 and counts[0] == 7          # degenerate range
    grid = np.linspace(0.0, 1.0, 100, endpoint=False)
    edges, counts = histogram(grid, bins=10)
    assert counts.tolist() == [10] * 10
    assert counts.sum() == 100
    with pytest.raises(ValueError, match="empty"):
        histogram([], 5)
    with pytest.raises(ValueError, match="bins"):
        histogram([1.0], 0)


def test_run_record_reproducible_bytes():
    a = run_experiment(_karate_cfg())
    b = run_experiment(_karate_cfg())
    assert a.to_json() == b.to_json()


def test_census_replications_are_identical():
    cfg = _karate_cfg(design={"kind": "srs", "n_star": 34}, replications=5)
    rec = run_experiment(cfg)
    s = rec.sweeps[0].summaries["dirichlet_normalized:known_denominator"]
    assert s.std == 0.0
    assert s.bias == pytest.approx(0.0, abs=1e-12)
    assert s.invalid == 0


def test_sweep_and_frac_resolution():
    cfg = _karate_cfg(design={"kind": "srs"}, sweep=({"frac": 0.3}, {"n_star": 20}),
                      replications=10)
    rec = run_experiment(cfg)
    assert len(rec.sweeps) == 2
    assert rec.sweeps[0].params == {"frac": 0.3}
    # 30% of 34 nodes rounds to 10
    assert all(r["sampled_nodes"] == 10 for r in rec.sweeps[0].replications)
    assert all(r["sampled_nodes"] == 20 for r in rec.sweeps[1].replications)


@pytest.mark.parametrize("frac", [-2.0, 0.0, float("nan"), 1.5])
def test_frac_outside_unit_interval_is_rejected(frac):
    with pytest.raises(ValueError, match=f"SRS frac must be in \\(0, 1\\], got {frac!r}"):
        resolve_design({"kind": "srs"}, {"frac": frac}, 34)
    assert resolve_design({"kind": "srs"}, {"frac": 1.0}, 34).n_star == 34


def test_ground_truth_cached_once():
    rec = run_experiment(_karate_cfg())
    assert rec.ground_truth["dirichlet_normalized"] == pytest.approx(25 / 231, abs=1e-12)


def test_bias_within_monte_carlo_band_for_unbiased_mode():
    # |bias| <= 4 sd / sqrt(T) for the exactly unbiased total-type estimator
    cfg = _karate_cfg(replications=200)
    rec = run_experiment(cfg)
    s = rec.sweeps[0].summaries["dirichlet_normalized:known_denominator"]
    assert abs(s.bias) <= 4 * s.std / np.sqrt(s.valid)


def test_invalid_replications_counted_not_hidden():
    # tiny Bernoulli samples on karate often have no edges: hajek flags them
    cfg = _karate_cfg(design={"kind": "bernoulli", "p": 0.1},
                      metrics=(("dirichlet_normalized", "hajek_ratio"),),
                      replications=60)
    rec = run_experiment(cfg)
    s = rec.sweeps[0].summaries["dirichlet_normalized:hajek_ratio"]
    assert s.invalid > 0
    assert s.valid + s.invalid == 60
    assert sum(s.histogram["counts"]) == s.valid


def test_zero_invalids_for_total_mode_at_p03():
    cfg = _karate_cfg(design={"kind": "bernoulli"},
                      metrics=(("dirichlet_total", "ht_total"),),
                      sweep=({"p": 0.3}, {"p": 0.5}),
                      replications=100)
    rec = run_experiment(cfg)
    for sweep in rec.sweeps:
        assert sweep.summaries["dirichlet_total:ht_total"].invalid == 0


def test_summaries_and_csv_outputs():
    cfg = _karate_cfg(metrics=(("dirichlet_normalized", "known_denominator"),
                               ("node_homophily", "plug_in")),
                      replications=8)
    rec = run_experiment(cfg)
    rows = summarize(rec)
    assert {r["kind"] for r in rows} == {"dirichlet_normalized", "node_homophily"}
    buf = io.StringIO()
    write_summary_csv(rec, buf)
    assert buf.getvalue().count("\n") == len(rows) + 1
    buf = io.StringIO()
    write_histogram_csv(rec, buf)
    assert buf.getvalue().startswith("dataset,kind,mode,param,bin_left,bin_right,count")
    buf = io.StringIO()
    write_estimates_csv(rec, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",")[:4] == ["dataset", "kind", "mode", "design"]
    assert len(lines) == 1 + 8 * 2


def test_config_validation():
    with pytest.raises(ValueError, match="replications"):
        _karate_cfg(replications=0)
    with pytest.raises(ValueError, match="unknown metric"):
        _karate_cfg(metrics=(("degree", "plug_in"),))
    with pytest.raises(ValueError, match="not supported for 'node_homophily'"):
        _karate_cfg(metrics=(("node_homophily", "ht_total"),))


def test_config_rejects_bins_below_one():
    # at construction, before any replication runs
    with pytest.raises(ValueError, match="bins must be >= 1"):
        _karate_cfg(bins=0)


def test_all_replications_reported_in_order():
    rec = run_experiment(_karate_cfg(replications=12))
    assert [r["rep"] for r in rec.sweeps[0].replications] == list(range(12))
    seeds = [r["seed"] for r in rec.sweeps[0].replications]
    assert len(set(seeds)) == 12


def test_empirical_oracle_runs_on_each_sweeps_auxiliary_stream(monkeypatch):
    # sweep s's oracle draws from (base_seed, 2, s), never from a replication's stream
    seen = []

    def spy(g, design, source, replications):
        seen.append((source, design.seed, replications))
        return inclusion.inclusion_for(g, design, source=source, replications=replications)

    monkeypatch.setattr(harness, "inclusion_for", spy)
    cfg = _karate_cfg(sweep=({"n_star": 12}, {"n_star": 14}), replications=2,
                      pi_source="empirical", pi_replications=50)
    run_experiment(cfg)
    assert seen == [("empirical", derive_seed(101, 2, s), 50) for s in (0, 1)]


def test_plug_in_only_runs_build_no_inclusion_model(monkeypatch):
    # plug-in estimates never read pi, so not even the empirical oracle runs
    def fail(*args, **kwargs):
        raise AssertionError("inclusion model built for a plug-in-only run")

    monkeypatch.setattr(harness, "inclusion_for", fail)
    cfg = _karate_cfg(design={"kind": "traceroute", "n_sources": 3, "n_targets": 3},
                      metrics=(("node_homophily", "plug_in"),), replications=5,
                      pi_source="empirical")
    record = run_experiment(cfg)
    assert record.sweeps[0].summaries["node_homophily:plug_in"].valid == 5


def test_replication_and_oracle_streams_never_alias():
    # SeedSequence pads entropy with zeros, so unequal paths can name one stream;
    # the paths an experiment draws from together must not
    # (a sweep's oracle draws all its realizations from one stream)
    streams = {}
    for base in (0, 1, 101, 271828):
        for s in range(3):
            streams[("oracle", base, s)] = make_rng(derive_seed(base, 2, s))
            for r in range(50):
                streams[("rep", base, s, r)] = make_rng(derive_seed(base, 1, s, r))
    keys = {path: tuple(rng.bit_generator.random_raw(2).tolist()) for path, rng in streams.items()}
    assert len(set(keys.values())) == len(keys)


def test_unobserved_edges_are_invalid_replications_not_aborts():
    # a 200-realization oracle misses edges that some of the 300 samples
    # contain; those replications are recorded invalid with the reason
    cfg = _karate_cfg(design={"kind": "traceroute", "n_sources": 1, "n_targets": 1},
                      metrics=(("dirichlet_total", "ht_total"),), replications=300,
                      base_seed=271828, pi_source="empirical", pi_replications=200)
    rec = run_experiment(cfg)
    s = rec.sweeps[0].summaries["dirichlet_total:ht_total"]
    assert s.invalid > 0 and s.valid + s.invalid == 300
    reasons = {r["estimates"]["dirichlet_total:ht_total"].get("invalid")
               for r in rec.sweeps[0].replications} - {None}
    assert all("inclusion probability 0" in m for m in reasons)


ALL_PAIRS = (("dirichlet_total", "ht_total"), ("dirichlet_normalized", "known_denominator"),
             ("dirichlet_normalized", "hajek_ratio"), ("edge_homophily", "hajek_ratio"),
             ("edge_homophily", "plug_in"), ("node_homophily", "plug_in"))


@pytest.mark.parametrize("design, sweep, pi_source", [
    ({"kind": "bernoulli", "p": 0.3}, ({"p": 0.2}, {"p": 0.5}), "analytic"),
    ({"kind": "srs", "n_star": 10}, ({"n_star": 4}, {"frac": 0.5}), "analytic"),
    ({"kind": "traceroute", "n_sources": 2, "n_targets": 2}, ({"n_sources": 1}, {}), "analytic"),
    ({"kind": "traceroute", "n_sources": 2, "n_targets": 3}, ({"n_targets": 1}, {}), "empirical"),
])
def test_each_replication_reruns_alone_from_its_seed(karate, design, sweep, pi_source):
    g, s = karate
    cfg = _karate_cfg(design=design, sweep=sweep, metrics=ALL_PAIRS, replications=25,
                      pi_source=pi_source, pi_replications=20)
    rec = run_experiment(cfg, dataset=(g, s))
    invalid = 0
    for sweep_idx, (overrides, result) in enumerate(zip(sweep, rec.sweeps)):
        sweep_design = resolve_design(design, overrides, g.node_count)
        incl = harness.sweep_inclusion(g, sweep_design, cfg.base_seed, sweep_idx,
                                       pi_source, cfg.pi_replications)
        for rep in result.replications:
            sample = draw_sample(g, with_seed(sweep_design, rep["seed"]))
            assert (rep["sampled_nodes"], rep["sampled_edges"]) == (sample.node_count,
                                                                   sample.edge_count)
            rerun = {}
            for kind, mode in ALL_PAIRS:
                try:
                    rerun[f"{kind}:{mode}"] = vars(estimate_metric(sample, s, kind, mode, incl))
                except DegenerateSampleError as exc:
                    rerun[f"{kind}:{mode}"] = {"invalid": str(exc)}
                    invalid += 1
            # repr writes each float's shortest round-trip digits: equal reprs, equal bits
            assert repr(rerun) == repr(rep["estimates"])
    if pi_source == "empirical":
        assert invalid > 0     # reasons of the undersized oracle are rerun too


def test_zero_joint_probability_is_an_invalid_replication(karate):
    # a zero joint for disjoint edge pairs contradicts any sample holding two of them
    g, s = karate
    design = SrsDesign(n_star=20, seed=5)
    incl = design.inclusion(g)
    table = incl.joint_by_span.copy()
    table[4] = 0.0
    incl = dataclasses.replace(incl, joint_by_span=table)
    columns = SweepColumns(g, s, incl)
    (rep,) = _replicate_block(g, design, columns, (("dirichlet_total", "ht_total"),), 0, [5])
    assert "joint inclusion probability 0" in rep["estimates"]["dirichlet_total:ht_total"]["invalid"]


def test_traceroute_sweep_computes_betweenness_once(monkeypatch, karate):
    kg, signal = karate
    cfg = _karate_cfg(design={"kind": "traceroute", "n_sources": 2, "n_targets": 2},
                      metrics=(("dirichlet_total", "ht_total"),), replications=20,
                      sweep=({"n_sources": 1}, {"n_sources": 3}))
    path_dag, inclusion_for = inclusion.path_dag, harness.inclusion_for

    def run():
        g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
        brandes_sources, models = [], []
        monkeypatch.setattr(inclusion, "path_dag",
                            lambda g, s: brandes_sources.append(s) or path_dag(g, s))
        monkeypatch.setattr(harness, "inclusion_for",
                            lambda *a, **kw: models.append(inclusion_for(*a, **kw)) or models[-1])
        record = run_experiment(cfg, dataset=(g, signal))
        return g, len(brandes_sources), [m.pi.tobytes() for m in models], record.to_json()

    g, brandes, pis, record = run()
    assert brandes == g.node_count and len(pis) == 2 and pis[0] != pis[1]
    assert g._betweenness is not None and not g._betweenness.flags.writeable
    assert g._sp_cache_bytes == sum(d.nbytes for d in g._sp_cache.values())
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", 0)
    g0, brandes0, pis0, record0 = run()
    assert g0._sp_cache == {} and g0._sp_cache_bytes == 0
    assert brandes0 == g0.node_count and g0._betweenness is not None
    assert pis0 == pis and record0 == record
    # a budget that holds a few DAGs caches those and no more; the
    # betweenness is kept on the graph whatever the budget
    budget = sum(g._sp_cache[v].nbytes for v in range(3)) + 4 * g.edge_count
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", budget)
    g1, brandes1, pis1, record1 = run()
    assert 0 < len(g1._sp_cache) < g1.node_count
    assert brandes1 == g1.node_count and g1._betweenness is not None
    assert pis1 == pis and record1 == record


DIRICHLET_PAIRS = ALL_PAIRS[:3]
# a phrase of each check's reason, for the test statistics
INVALID_CHECKS = ("below the floor", "zero HT denominator", "empty sample", "no sampled edges",
                  "joint inclusion probability 0", "non-finite")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_block_engine_matches_the_per_replication_reference(karate, seed, data):
    # every replication of a block, split into blocks of any size, repr-equal
    # to the one drawn and estimated alone, invalid reasons and their order included
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="karate"):
        g, s = karate
    else:
        n = data.draw(st.integers(2, 14), label="n")
        g = random_graph(rng, n, data.draw(st.floats(0.2, 0.9), label="density"),
                         weighted=data.draw(st.booleans(), label="weighted"))
        s = random_onehot_signal(rng, n, data.draw(st.integers(1, 3), label="classes"))
        assume(g.edge_count)     # an experiment on an edgeless graph stops at its ground truth
    pairs = ALL_PAIRS
    if data.draw(st.booleans(), label="non-finite signal"):
        # one node's infinite feature makes every estimate touching it non-finite
        rows = rng.normal(size=(g.node_count, 2))
        rows[rng.integers(g.node_count), 0] = np.inf
        s, pairs = GraphSignal(rows), DIRICHLET_PAIRS
    n = g.node_count
    design = design_from_dict(data.draw(st.sampled_from([
        {"kind": "bernoulli", "p": data.draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]), label="p")},
        {"kind": "srs", "n_star": data.draw(st.integers(1, n), label="n_star")},
        {"kind": "traceroute", "n_sources": data.draw(st.integers(1, min(3, n)), label="sources"),
         "n_targets": data.draw(st.integers(1, min(3, n)), label="targets")},
    ]), label="design"))
    if data.draw(st.booleans(), label="empirical"):
        # an undersized oracle leaves sampled edges below the pi floor
        incl = inclusion.inclusion_for(g, with_seed(design, seed), source="empirical",
                                       replications=data.draw(st.integers(1, 40), label="pi_reps"))
    else:
        incl = design.inclusion(g)
        if incl.has_joint and data.draw(st.booleans(), label="zero joint"):
            table = incl.joint_by_span.copy()
            table[data.draw(st.sampled_from([3, 4]), label="span")] = 0.0
            incl = dataclasses.replace(incl, joint_by_span=table)
    reps = data.draw(st.integers(1, 300), label="replications")
    per_block = data.draw(st.integers(1, reps), label="rows per block")
    seeds = [derive_seed(seed, 1, 0, r) for r in range(reps)]

    reference = ReferenceColumns(g, s, incl, sorted({kind for kind, _ in pairs}))
    want = [reference_replicate(g, design, reference, pairs, r, seed)
            for r, seed in enumerate(seeds)]
    columns = SweepColumns(g, s, incl)
    got = []
    for start in range(0, reps, per_block):
        got += _replicate_block(g, design, columns, pairs, start,
                                seeds[start:start + per_block])
    # repr writes each float's shortest round-trip digits: equal reprs, equal bits
    assert repr(got) == repr(want)
    reasons = {e["invalid"] for r in got for e in r["estimates"].values() if "invalid" in e}
    for check in INVALID_CHECKS:
        if any(check in reason for reason in reasons):
            event(f"invalid: {check}")


@pytest.mark.parametrize("first, second", [
    ("below the floor", "non-finite"),
    ("joint inclusion probability 0", "non-finite"),
])
def test_block_engine_keeps_the_order_of_checks(karate, first, second):
    # rows failing two checks carry the reason of the one a sample alone meets first
    g, _ = karate
    rows = np.random.default_rng(5).normal(size=(g.node_count, 2))
    rows[0, 0] = np.inf                          # node 0 has degree 16
    s = GraphSignal(rows)
    design = SrsDesign(n_star=20)
    if first == "below the floor":
        incl = inclusion.inclusion_for(g, with_seed(design, 9), source="empirical",
                                       replications=3)
    else:
        incl = design.inclusion(g)
        table = incl.joint_by_span.copy()
        table[4] = 0.0
        incl = dataclasses.replace(incl, joint_by_span=table)
    seeds = [derive_seed(11, 1, 0, r) for r in range(50)]
    pair = ("dirichlet_total", "ht_total")
    got = _replicate_block(g, design, SweepColumns(g, s, incl), (pair,), 0, seeds)
    reference = ReferenceColumns(g, s, incl, ("dirichlet_total",))
    assert repr(got) == repr([reference_replicate(g, design, reference, (pair,), r, seed)
                              for r, seed in enumerate(seeds)])
    # the rows whose sample holds node 0 fail both checks
    both = [r["estimates"]["dirichlet_total:ht_total"].get("invalid", "") for r in got
            if 0 in draw_sample(g, with_seed(design, r["seed"])).nodes]
    assert both and all(first in reason for reason in both)
    assert not any(second in reason for reason in both)


@pytest.mark.parametrize("design, pi_source", [
    ({"kind": "bernoulli", "p": 0.3}, "analytic"),
    ({"kind": "srs", "n_star": 6}, "empirical"),
    ({"kind": "traceroute", "n_sources": 2, "n_targets": 2}, "empirical"),
])
def test_one_row_blocks_write_the_record_of_one_block(karate, design, pi_source):
    cfg = _karate_cfg(design=design, metrics=ALL_PAIRS, replications=60,
                      pi_source=pi_source, pi_replications=30)
    assert harness._block_rows(karate[0]) >= cfg.replications
    record = run_experiment(cfg, dataset=karate).to_json()
    with mock.patch.object(harness, "_BLOCK_BYTES", 1):
        assert harness._block_rows(karate[0]) == 1
        assert run_experiment(cfg, dataset=karate).to_json() == record


def test_one_block_stays_within_the_byte_budget():
    # the budget bounds what a block allocates, fixed before the run: a
    # census of a W-random graph through every metric pair, the span-variance path included
    g, u = graphon.sample_w_random_graph(graphon.two_block_graphon(0.5, 0.2)[0], 200,
                                         np.random.default_rng(3))
    s = GraphSignal.from_labels((u >= 0.5).astype(int), 2)
    design = design_from_dict({"kind": "bernoulli", "p": 1.0})
    columns = SweepColumns(g, s, design.inclusion(g))
    rows = harness._block_rows(g)
    seeds = [derive_seed(7, 1, 0, r) for r in range(2 * rows)]
    _replicate_block(g, design, columns, ALL_PAIRS, 0, seeds[:rows])   # builds the columns
    tracemalloc.start()
    try:
        _replicate_block(g, design, columns, ALL_PAIRS, rows, seeds[rows:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count > 5_000 and rows > 1
    assert peak <= harness._BLOCK_BYTES
