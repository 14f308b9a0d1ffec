import dataclasses
import io

import numpy as np
import pytest

from homsample import Graph, SrsDesign, harness, inclusion, karate_manifest_path, shortest_paths
from homsample.harness import (
    _replicate,
    ExperimentConfig,
    histogram,
    resolve_design,
    run_experiment,
    summarize,
    write_estimates_csv,
    write_histogram_csv,
    write_summary_csv,
)
from homsample.rng import derive_seed


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
    assert sum(s.hist_counts) == s.valid


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


def test_zero_joint_probability_is_an_invalid_replication(karate):
    # a zero joint for disjoint edge pairs contradicts any sample holding two of them
    g, s = karate
    design = SrsDesign(n_star=20, seed=5)
    incl = design.inclusion(g)
    table = incl.joint_by_span.copy()
    table[4] = 0.0
    incl = dataclasses.replace(incl, joint_by_span=table)
    rep = _replicate(g, s, design, incl, (("dirichlet_total", "ht_total"),), 0, 5)
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
    assert g._sp_cache_bytes == sum(d.nbytes for d in g._sp_cache.values()) + 8 * g.edge_count
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", 0)
    g0, brandes0, pis0, record0 = run()
    assert brandes0 == 2 * g0.node_count and g0._betweenness is None
    assert pis0 == pis and record0 == record
    # DAGs that overflow the budget, and alone would leave less than the
    # betweenness's 8*m bytes, leave it stored
    budget = sum(g._sp_cache[v].nbytes for v in range(3)) + 4 * g.edge_count
    monkeypatch.setattr(shortest_paths, "_CACHE_BYTES", budget)
    g1, brandes1, pis1, record1 = run()
    assert 0 < len(g1._sp_cache) < g1.node_count
    assert brandes1 == g1.node_count and g1._betweenness is not None
    assert pis1 == pis and record1 == record
