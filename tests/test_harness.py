import dataclasses
import io
import json
import sys
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
from homsample.estimators import (
    VARIANCE_CLAMPED,
    VARIANCE_EXACT,
    VARIANCE_UNSUPPORTED,
    DegenerateSampleError,
    estimate_block,
    estimate_metric,
)
from homsample.harness import (
    ExperimentConfig,
    SweepResult,
    histogram,
    resolve_design,
    run_experiment,
    summarize,
    write_estimates_csv,
    write_histogram_csv,
    write_summary_csv,
)
from homsample.rng import derive_seed, make_rng
from homsample.sampling import design_from_dict, draw_block, draw_sample
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
    assert all(r["sampled_nodes"] == 10 for r in rec.sweeps[0].rows())
    assert all(r["sampled_nodes"] == 20 for r in rec.sweeps[1].rows())


@pytest.mark.parametrize("frac", [-2.0, 0.0, float("nan"), 1.5])
def test_frac_outside_unit_interval_is_rejected(frac):
    with pytest.raises(ValueError, match=f"SRS frac must be in \\(0, 1\\], got {frac!r}"):
        resolve_design({"kind": "srs"}, {"frac": frac}, 34)
    assert resolve_design({"kind": "srs"}, {"frac": 1.0}, 34).n_star == 34


def test_an_srs_size_override_replaces_the_templates():
    template = {"kind": "srs", "n_star": 5}
    assert resolve_design(template, {"frac": 0.5}, 34) == SrsDesign(n_star=17)
    assert resolve_design({"kind": "srs", "frac": 0.5}, {"n_star": 4}, 34) == SrsDesign(n_star=4)
    assert resolve_design(template, {}, 34) == SrsDesign(n_star=5)
    with pytest.raises(ValueError, match=r"^SRS frac must be in \(0, 1\], got 7.0$"):
        resolve_design(template, {"frac": 7}, 34)
    with pytest.raises(ValueError, match="could not convert"):
        resolve_design(template, {"frac": "abc"}, 34)
    for template, overrides in (({"kind": "srs", "frac": 0.5, "n_star": 5}, {}),
                                (template, {"frac": 0.5, "n_star": 4})):
        with pytest.raises(ValueError, match="^frac and n_star both set the SRS sample size; "
                                             "give one$"):
            resolve_design(template, overrides, 34)


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
    with pytest.raises(ValueError, match="^replications"):
        _karate_cfg(replications=0)
    with pytest.raises(ValueError, match="^pi replications must be >= 1, got 0"):
        _karate_cfg(pi_source="empirical", pi_replications=0)
    _karate_cfg(pi_replications=0)     # analytic pi runs no oracle
    # refused at once, not at the first sweep or, with plug-in pairs alone, never
    for metrics in (ALL_PAIRS, (("edge_homophily", "plug_in"),)):
        with pytest.raises(ValueError, match="^unknown inclusion source 'bogus'$"):
            _karate_cfg(pi_source="bogus", metrics=metrics)
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
    assert [r["rep"] for r in rec.sweeps[0].rows()] == list(range(12))
    seeds = [r["seed"] for r in rec.sweeps[0].rows()]
    assert len(set(seeds)) == 12


def test_empirical_oracle_runs_on_each_sweeps_auxiliary_stream(monkeypatch):
    # sweep s's oracle draws from (base_seed, 2, s), never from a replication's stream
    seen = []
    inclusion_for = inclusion.inclusion_for

    def spy(g, design, source, replications, seed):
        seen.append((source, seed, replications))
        return inclusion_for(g, design, source=source, replications=replications, seed=seed)

    monkeypatch.setattr(inclusion, "inclusion_for", spy)
    cfg = _karate_cfg(sweep=({"n_star": 12}, {"n_star": 14}), replications=2,
                      pi_source="empirical", pi_replications=50)
    run_experiment(cfg)
    assert seen == [("empirical", derive_seed(101, 2, s), 50) for s in (0, 1)]


def test_plug_in_only_runs_build_no_inclusion_model(monkeypatch):
    # plug-in estimates never read pi, so not even the empirical oracle runs
    def fail(*args, **kwargs):
        raise AssertionError("inclusion model built for a plug-in-only run")

    monkeypatch.setattr(inclusion, "inclusion_for", fail)
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
               for r in rec.sweeps[0].rows()} - {None}
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
        for rep in result.rows():
            sample = draw_sample(g, sweep_design, rep["seed"])
            assert (rep["sampled_nodes"], rep["sampled_edges"]) == (sample.node_count,
                                                                   sample.edge_count)
            rerun = {}
            for kind, mode in ALL_PAIRS:
                try:
                    report = estimate_metric(sample, s, kind, mode, incl)
                except DegenerateSampleError as exc:
                    rerun[f"{kind}:{mode}"] = {"invalid": str(exc)}
                    invalid += 1
                    continue
                # the entry drops what its replication, key and sweep already hold;
                # the design and seed an estimate writes are checked through the CLI
                assert (report.kind, report.mode) == (kind, mode)
                assert (report.sampled_nodes, report.sampled_edges) == (
                    rep["sampled_nodes"], rep["sampled_edges"])
                rerun[f"{kind}:{mode}"] = {"point": report.point, "variance": report.variance,
                                           "variance_status": report.variance_status}
            # repr writes each float's shortest round-trip digits: equal reprs, equal bits
            assert repr(rerun) == repr(rep["estimates"])
    if pi_source == "empirical":
        assert invalid > 0     # reasons of the undersized oracle are rerun too


@pytest.mark.parametrize("design, pi_source", [
    ({"kind": "bernoulli", "p": 0.2}, "analytic"),
    ({"kind": "traceroute", "n_sources": 2, "n_targets": 3}, "empirical"),
])
def test_each_estimate_entry_holds_only_its_own_numbers(karate, design, pi_source):
    # kind and mode are in the entry's key, sizes and seed in its replication,
    # the design in its sweep: a valid entry is its point, variance and status
    cfg = _karate_cfg(design=design, metrics=ALL_PAIRS, replications=40,
                      pi_source=pi_source, pi_replications=20)
    record = json.loads(run_experiment(cfg, dataset=karate).to_json())
    shapes = [list(entry) for rep in record["sweeps"][0]["replications"]
              for entry in rep["estimates"].values()]
    assert len(shapes) == 40 * len(ALL_PAIRS)
    assert {tuple(s) for s in shapes} == {("point", "variance", "variance_status"), ("invalid",)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["ground_truth", "point", "variance", "mean", "bin_edge",
                                   "sweep_parameter"])
def test_a_non_finite_record_field_is_an_error(karate, bad, where):
    record = run_experiment(_karate_cfg(replications=3), dataset=karate)
    record.to_json()
    key = "dirichlet_normalized:known_denominator"
    sweep = record.sweeps[0]
    if where == "ground_truth":
        record.ground_truth["dirichlet_normalized"] = bad
    elif where in ("point", "variance"):
        # row 1 is valid and has an exact variance
        getattr(sweep.estimates[key], where + "s")[1] = bad
    elif where == "mean":
        sweep.summaries[key].mean = bad
    elif where == "bin_edge":
        sweep.summaries[key].histogram["edges"][-1] = bad
    else:
        sweep.params["n_star"] = bad
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        record.to_json()


def _json_dumps_record(record) -> str:
    """The record through json's own indented encoder, as RunRecord.to_json promises."""
    d = {**vars(record), "config": vars(record.config),
         "sweeps": [{"params": s.params, "replications": list(s.rows()),
                     "summaries": {k: vars(v) for k, v in s.summaries.items()}}
                    for s in record.sweeps]}
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


# strings json must escape: quotes, backslashes, control and non-ASCII characters,
# characters beyond the BMP (written as surrogate pairs) and lone surrogates
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é😀\udc80'),
                          st.characters(codec=None)), max_size=12)
_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                                    -1.7976931348623157e308, 0.1, 1e16, 1e-7]),
                   st.floats(allow_nan=False, allow_infinity=False))
_U64 = st.integers(0, 2**64 - 1)
_SIZE = st.integers(0, 2**63 - 1)
# a row's estimate: its point, variance and status, or the reason of an invalid row
_ENTRY = st.one_of(
    st.tuples(_FLOAT, _FLOAT, st.sampled_from([VARIANCE_EXACT, VARIANCE_CLAMPED])),
    st.tuples(_FLOAT, st.just(np.nan), st.just(VARIANCE_UNSUPPORTED)),
    _TEXT)
# a parameter named like the slot of the rows, at a depth where the writer must not find it
_PARAMS = st.dictionaries(st.sampled_from(["p", "replications", "sweeps", "n_star"]) | _TEXT,
                          _FLOAT | _U64 | st.just([]), max_size=3)


@st.composite
def _sweep_columns(draw):
    """A sweep's columns, up to three rows of up to three estimate keys."""
    keys = draw(st.lists(_TEXT, max_size=3, unique=True))
    n = draw(st.integers(0, 3))
    sweep = SweepResult.allocate(draw(_PARAMS), keys, n)
    sweep.seeds[:] = draw(st.lists(_U64, min_size=n, max_size=n))
    sweep.sampled_nodes[:] = draw(st.lists(_SIZE, min_size=n, max_size=n))
    sweep.sampled_edges[:] = draw(st.lists(_SIZE, min_size=n, max_size=n))
    for key in keys:
        est = sweep.estimates[key]
        for row in range(n):
            entry = draw(_ENTRY)
            if isinstance(entry, str):
                est.invalid[row] = entry
            else:
                est.points[row], est.variances[row], est.statuses[row] = entry
    return sweep


@settings(max_examples=200, deadline=None)
@given(dataset=_TEXT, sweeps=st.lists(_sweep_columns(), max_size=3))
def test_record_rows_are_written_as_json_writes_them(dataset, sweeps):
    key = "dirichlet_normalized:known_denominator"
    for sweep in sweeps:
        sweep.summaries = {key: harness.SummaryStats(
            kind="dirichlet_normalized", mode="known_denominator", ground_truth=0.25, mean=0.5,
            bias=0.25, std=None, valid=1, invalid=0,
            histogram={"edges": [0.5, 0.5], "counts": [1]})}
    record = harness.RunRecord(
        dataset=dataset, config=_karate_cfg(), ground_truth={"dirichlet_normalized": 0.25},
        sweeps=sweeps)
    assert record.to_json() == _json_dumps_record(record)


def _replicate(g, design, s, incl, pairs, seeds, per_block=None) -> list:
    """The rows of a sweep of ``seeds``, run ``per_block`` rows to a block
    (all at once by default) as an experiment runs them."""
    per_block = per_block or len(seeds)
    sweep = SweepResult.allocate({}, [f"{kind}:{mode}" for kind, mode in pairs], len(seeds))
    for start in range(0, len(seeds), per_block):
        block = draw_block(g, design, seeds[start:start + per_block])
        sweep.put(start, seeds[start:start + per_block], block,
                  estimate_block(block, s, incl, pairs))
    return list(sweep.rows())


def _two_triangles():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3, 2.5)])
    return g, GraphSignal.from_labels([0, 1, 0, 1, 1, 0, 0], 2)


@pytest.mark.parametrize("design, sweep, pi_source, graph", [
    ({"kind": "bernoulli"}, ({"p": 0.02}, {"p": 0.3}), "analytic", "karate"),
    ({"kind": "srs"}, ({"n_star": 2}, {"frac": 0.5}), "analytic", "karate"),
    # one source and one target in different triangles sample no edge
    ({"kind": "traceroute"}, ({"n_sources": 1, "n_targets": 1}, {"n_sources": 2, "n_targets": 2}),
     "analytic", "two triangles"),
    ({"kind": "traceroute"}, ({"n_sources": 1, "n_targets": 1}, {"n_sources": 2, "n_targets": 3}),
     "empirical", "karate"),
])
def test_real_records_are_written_as_json_writes_them(karate, design, sweep, pi_source, graph):
    dataset = karate if graph == "karate" else _two_triangles()
    cfg = _karate_cfg(design=design, sweep=sweep, metrics=ALL_PAIRS, replications=30,
                      base_seed=5, pi_source=pi_source, pi_replications=30)
    record = run_experiment(cfg, dataset=dataset)
    entries = [e for s in record.sweeps for r in s.rows() for e in r["estimates"].values()]
    assert any("invalid" in e for e in entries) and any("point" in e for e in entries)
    assert record.to_json() == _json_dumps_record(record)


def test_zero_joint_probability_is_an_invalid_replication(karate):
    # a zero joint for disjoint edge pairs contradicts any sample holding two of them
    g, s = karate
    design = SrsDesign(n_star=20)
    incl = design.inclusion(g)
    table = incl.joint_by_span.copy()
    table[4] = 0.0
    incl = dataclasses.replace(incl, joint_by_span=table)
    (rep,) = _replicate(g, design, s, incl, (("dirichlet_total", "ht_total"),), [5])
    assert "joint inclusion probability 0" in rep["estimates"]["dirichlet_total:ht_total"]["invalid"]


def test_traceroute_sweep_computes_betweenness_once(monkeypatch, karate):
    kg, signal = karate
    cfg = _karate_cfg(design={"kind": "traceroute", "n_sources": 2, "n_targets": 2},
                      metrics=(("dirichlet_total", "ht_total"),), replications=20,
                      sweep=({"n_sources": 1}, {"n_sources": 3}))
    path_dag, inclusion_for = shortest_paths.path_dag, inclusion.inclusion_for
    betweenness_code = inclusion.edge_betweenness.__code__   # the draws call path_dag too

    def run():
        g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
        brandes_sources, models = [], []

        def counted_path_dag(g, s):
            if sys._getframe(1).f_code is betweenness_code:
                brandes_sources.append(s)
            return path_dag(g, s)

        monkeypatch.setattr(shortest_paths, "path_dag", counted_path_dag)
        monkeypatch.setattr(inclusion, "inclusion_for",
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


# the pairs a feature signal defines: normalized energy is refused for it
FEATURE_PAIRS = (("dirichlet_total", "ht_total"), ("dirichlet_total", "plug_in"))
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
        s, pairs = GraphSignal(rows), FEATURE_PAIRS
    n = g.node_count
    design = design_from_dict(data.draw(st.sampled_from([
        {"kind": "bernoulli", "p": data.draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]), label="p")},
        {"kind": "srs", "n_star": data.draw(st.integers(1, n), label="n_star")},
        {"kind": "traceroute", "n_sources": data.draw(st.integers(1, min(3, n)), label="sources"),
         "n_targets": data.draw(st.integers(1, min(3, n)), label="targets")},
    ]), label="design"))
    if data.draw(st.booleans(), label="empirical"):
        # an undersized oracle leaves sampled edges below the pi floor
        incl = inclusion.inclusion_for(g, design, source="empirical",
                                       replications=data.draw(st.integers(1, 40), label="pi_reps"),
                                       seed=seed)
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
    got = _replicate(g, design, s, incl, pairs, seeds, per_block)
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
        incl = inclusion.inclusion_for(g, design, source="empirical", replications=3, seed=9)
    else:
        incl = design.inclusion(g)
        table = incl.joint_by_span.copy()
        table[4] = 0.0
        incl = dataclasses.replace(incl, joint_by_span=table)
    seeds = [derive_seed(11, 1, 0, r) for r in range(50)]
    pair = ("dirichlet_total", "ht_total")
    got = _replicate(g, design, s, incl, (pair,), seeds)
    reference = ReferenceColumns(g, s, incl, ("dirichlet_total",))
    assert repr(got) == repr([reference_replicate(g, design, reference, (pair,), r, seed)
                              for r, seed in enumerate(seeds)])
    # the rows whose sample holds node 0 fail both checks
    both = [r["estimates"]["dirichlet_total:ht_total"].get("invalid", "") for r in got
            if 0 in draw_sample(g, design, r["seed"]).nodes]
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


def test_a_sweep_holds_each_replication_in_a_few_hundred_bytes(karate):
    # columns hold a seed, two sizes and, per metric pair, a point, a variance
    # and a status: about 120 bytes here, where a dict per replication took
    # about 1.3 kB; the bound is fixed before the run
    pairs = (("dirichlet_normalized", "hajek_ratio"), ("edge_homophily", "hajek_ratio"),
             ("node_homophily", "plug_in"), ("dirichlet_total", "ht_total"))
    cfg = _karate_cfg(design={"kind": "bernoulli", "p": 0.3}, metrics=pairs,
                      replications=20_000)
    tracemalloc.start()
    try:
        record = run_experiment(cfg, dataset=karate)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    summaries = record.sweeps[0].summaries.values()
    assert [s.valid + s.invalid for s in summaries] == [cfg.replications] * len(pairs)
    assert current <= 300 * cfg.replications


def test_one_block_stays_within_the_byte_budget():
    # the budget bounds what a block allocates, fixed before the run: a
    # census of a W-random graph through every metric pair, the span-variance path included
    g, u = graphon.sample_w_random_graph(graphon.two_block_graphon(0.5, 0.2)[0], 200,
                                         np.random.default_rng(3))
    s = GraphSignal.from_labels((u >= 0.5).astype(int), 2)
    design = design_from_dict({"kind": "bernoulli", "p": 1.0})
    incl = design.inclusion(g)
    rows = harness._block_rows(g)
    seeds = [derive_seed(7, 1, 0, r) for r in range(2 * rows)]
    sweep = SweepResult.allocate({}, [f"{kind}:{mode}" for kind, mode in ALL_PAIRS], 2 * rows)

    def replicate(start):
        block = draw_block(g, design, seeds[start:start + rows])
        sweep.put(start, seeds[start:start + rows], block,
                  estimate_block(block, s, incl, ALL_PAIRS))

    replicate(0)
    tracemalloc.start()
    try:
        replicate(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count > 5_000 and rows > 1
    assert peak <= harness._BLOCK_BYTES
