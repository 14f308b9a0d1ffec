"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else. The slowest items are the
traceroute inclusion oracle (10^5 design replications) and the randomized
exhaustive-enumeration checks; the whole module runs in a few minutes.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import spearmanr

import homsample as hs
from homsample import (
    BernoulliDesign,
    Graph,
    GraphSignal,
    SrsDesign,
    TracerouteDesign,
)
from homsample.estimators import ht_total, ht_variance
from homsample.graphon import signal_at_latents
from homsample.harness import ExperimentConfig, run_experiment
from homsample.rng import derive_seed
from oracles import dense_joint, random_graph, random_onehot_signal

SEED = 20250810
MANIFEST = str(hs.karate_manifest_path())


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _enumerate_srs(g, s, n_star, clamp=False):
    design = SrsDesign(n_star=n_star)
    incl = hs.inclusion_for(g, design)
    values = hs.edge_variation_values(g, s)
    hts, var_ests = [], []
    for subset in itertools.combinations(range(g.node_count), n_star):
        sample = hs.induced_subgraph(g, subset, design)
        vals = values[sample.edge_index]
        hts.append(ht_total(sample, vals, incl))
        v, _ = ht_variance(sample, vals, incl, clamp_negative=clamp)
        var_ests.append(v)
    return np.array(hts), np.array(var_ests)


def test_criterion_1_star_exact_unbiasedness():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    s = GraphSignal.from_labels([0, 0, 1, 1], 2)
    hts, var_ests = _enumerate_srs(g, s, 3, clamp=True)
    true_var = float(np.mean(hts ** 2) - np.mean(hts) ** 2)
    ok = (sorted(var_ests.tolist()) == [0.0, 8.0, 8.0, 16.0]
          and abs(np.mean(hts) - 4.0) <= 1e-12
          and abs(np.mean(var_ests) - true_var) <= 1e-12
          and abs(true_var - 8.0) <= 1e-12)
    report(1, ok, f"star K1,3 SRS n*=3: E[HT]={np.mean(hts)}, "
                  f"E[var est]={np.mean(var_ests)}, true var={true_var}")


def test_criterion_2_randomized_exhaustive_unbiasedness():
    rng = np.random.default_rng(SEED)
    graphs = 0
    worst_ht, worst_var = 0.0, 0.0
    while graphs < 50:
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, 0.5)
        if g.edge_count == 0:
            continue
        graphs += 1
        s = random_onehot_signal(rng, n, 2)
        tv = hs.dirichlet_energy(g, s)
        for n_star in range(2, n + 1):
            incl = hs.inclusion_for(g, SrsDesign(n_star))
            joint = dense_joint(g, np.arange(g.edge_count), incl.pi, incl.joint_by_span)
            hts, var_ests = _enumerate_srs(g, s, n_star)
            worst_ht = max(worst_ht, abs(float(np.mean(hts)) - tv))
            if np.all(joint > 0):
                true_var = float(np.mean(hts ** 2) - np.mean(hts) ** 2)
                worst_var = max(worst_var, abs(float(np.mean(var_ests)) - true_var))
    ok = worst_ht <= 1e-10 and worst_var <= 1e-10
    report(2, ok, f"50 random graphs, all SRS sizes: max |E[HT]-TV|={worst_ht:.2e}, "
                  f"max |E[var est]-Var|={worst_var:.2e}")


def test_criterion_3_step_functional_identity():
    g, s, _ = hs.load_dataset(MANIFEST)
    cases = [(g, s)]
    rng = np.random.default_rng(SEED + 1)
    while len(cases) < 101:
        n = int(rng.integers(2, 40))
        gg = random_graph(rng, n, 0.4, weighted=bool(rng.integers(2)))
        cases.append((gg, random_onehot_signal(rng, n, int(rng.integers(2, 5)))))
    worst = 0.0
    for gg, ss in cases:
        tv = hs.dirichlet_energy(gg, ss)
        scaled = hs.phi_step(*hs.to_step_pair(gg, ss)) * gg.node_count ** 2
        worst = max(worst, abs(scaled - tv) / max(abs(tv), 1e-30) if tv else abs(scaled))
    ok = worst <= 1e-9
    report(3, ok, f"phi*n^2 vs Dirichlet energy on karate + 100 random graphs: "
                  f"max relative residual {worst:.2e}")


def test_criterion_4_table_ground_truth():
    g, s, _ = hs.load_dataset(MANIFEST)
    vals = (hs.normalized_dirichlet(g, s), hs.edge_homophily(g, s), hs.node_homophily(g, s))
    targets = (0.1082, 0.8918, 0.8882)
    ok = all(abs(v - t) <= 5e-4 for v, t in zip(vals, targets))
    # complement identity on one-hot datasets, weighted or not
    rng = np.random.default_rng(SEED + 2)
    datasets = [(g, s)]
    for _ in range(20):
        n = int(rng.integers(3, 60))
        gg = random_graph(rng, n, 0.3, weighted=bool(rng.integers(2)))
        if gg.edge_count:
            datasets.append((gg, random_onehot_signal(rng, n, int(rng.integers(2, 6)))))
    worst = max(abs(hs.normalized_dirichlet(gg, ss) + hs.edge_homophily(gg, ss) - 1.0)
                for gg, ss in datasets)
    ok = ok and worst <= 1e-12
    report(4, ok, f"karate metrics {tuple(round(v, 4) for v in vals)} vs {targets}; "
                  f"max |dirichlet + edge homophily - 1| = {worst:.2e}")


def _srs30_run(g, s, name):
    cfg = ExperimentConfig(
        dataset=name, design={"kind": "srs"},
        metrics=(("dirichlet_normalized", "hajek_ratio"),),
        replications=200, base_seed=SEED, sweep=({"frac": 0.3},))
    rec = run_experiment(cfg, dataset=(g, s))
    return rec.sweeps[0].summaries["dirichlet_normalized:hajek_ratio"]


def test_criterion_5_srs_30pct_reproduction():
    g, s, _ = hs.load_dataset(MANIFEST)
    karate = _srs30_run(g, s, "karate")
    se = karate.std / np.sqrt(karate.valid)
    ok = abs(karate.bias) <= 3 * se
    detail = f"karate: bias {karate.bias:+.4f} vs 3SE {3 * se:.4f}"

    # >= 1000-edge check on a synthetic two-block graph (paper benchmarks
    # are user-supplied; see HOMSAMPLE_TABLE1_MANIFEST below)
    w, sig = hs.two_block_graphon(0.5, 0.1)
    gg, u = hs.sample_w_random_graph(w, 300, hs.make_rng(424242))
    labels = np.argmax(signal_at_latents(sig, w, u).rows, axis=1)
    ss = GraphSignal.from_labels(labels, 2)
    assert gg.edge_count >= 1000
    big = _srs30_run(gg, ss, "synthetic-two-block")
    se_big = big.std / np.sqrt(big.valid)
    ok = ok and abs(big.bias) <= 3 * se_big and abs(big.bias) <= 0.02
    detail += f"; synthetic ({gg.edge_count} edges): bias {big.bias:+.5f} (cap 0.02)"

    extra = os.environ.get("HOMSAMPLE_TABLE1_MANIFEST")
    if extra:
        eg, es, ename = hs.load_dataset(extra)
        user = _srs30_run(eg, es, ename)
        se_u = user.std / np.sqrt(user.valid)
        ok = ok and abs(user.bias) <= 3 * se_u
        if eg.edge_count >= 1000:
            ok = ok and abs(user.bias) <= 0.02
        detail += f"; {ename}: bias {user.bias:+.5f}"
    report(5, ok, detail)


def test_criterion_6_dispersion_decreasing_in_p():
    cfg = ExperimentConfig(
        dataset=MANIFEST, design={"kind": "bernoulli"},
        metrics=(("dirichlet_total", "ht_total"),),
        replications=200, base_seed=SEED,
        sweep=({"p": 0.1}, {"p": 0.3}, {"p": 0.5}))
    rec = run_experiment(cfg)
    stats = [sw.summaries["dirichlet_total:ht_total"] for sw in rec.sweeps]
    stds = [st.std for st in stats]
    centered = all(abs(st.bias) <= 3 * st.std / np.sqrt(st.valid) for st in stats)
    ok = stds[0] > stds[1] > stds[2] and centered
    report(6, ok, f"BS p=(0.1,0.3,0.5): std={tuple(round(v, 2) for v in stds)} "
                  f"strictly decreasing, all means within 3 SE")


def test_criterion_7_traceroute_with_empirical_oracle():
    g, s, _ = hs.load_dataset(MANIFEST)
    bt = hs.edge_betweenness(g)
    gt = hs.normalized_dirichlet(g, s)
    values = hs.edge_variation_values(g, s)
    denom = 2.0 * hs.total_edge_weight(g)
    ok = True
    details = []
    for k, (n_s, n_t) in enumerate([(1, 1), (2, 2), (3, 3)]):
        oracle_design = TracerouteDesign(n_s, n_t, seed=derive_seed(SEED, 2, k))
        incl = hs.empirical_pi(g, oracle_design, replications=100_000)
        points = np.empty(200)
        for r in range(200):
            design = TracerouteDesign(n_s, n_t, seed=derive_seed(SEED, 1, k, r))
            sample = hs.draw_sample(g, design)
            points[r] = ht_total(sample, values[sample.edge_index], incl) / denom
        bias = points.mean() - gt
        se = points.std(ddof=1) / np.sqrt(len(points))
        approx = hs.approx_pi_traceroute(bt, n_s, n_t, g.node_count)
        rho = float(spearmanr(incl.pi, approx).statistic)
        ok = ok and abs(bias) <= 3 * se and rho >= 0.9
        details.append(f"({n_s},{n_t}): bias {bias:+.4f} (3SE {3 * se:.4f}), rank corr {rho:.3f}")
    report(7, ok, "; ".join(details))


def test_criterion_8_graphon_convergence():
    w, sig = hs.two_block_graphon(p_in=0.5, p_out=0.2)
    phi = hs.phi_grid(w, sig)
    assert abs(phi - 0.1) <= 1e-12
    runs, improved = 40, 0
    for seed in range(runs):
        res = hs.convergence_experiment(w, sig, sizes=(50, 100, 200, 400),
                                        reps=20, base_seed=SEED + seed)
        improved += res["series"][-1]["deviation"] < res["series"][0]["deviation"]
    ok = improved / runs >= 0.95
    report(8, ok, f"phi={phi:.3f}; deviation at n=400 < n=50 in {improved}/{runs} seeded runs")


def test_criterion_9_cli_byte_determinism(tmp_path):
    def run(*args):
        res = subprocess.run([sys.executable, "-m", "homsample", *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res

    outputs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        est = tmp_path / f"est_{tag}.json"
        smp = tmp_path / f"smp_{tag}.json"
        run_json = tmp_path / f"run_{tag}.json"
        run("estimate", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
            "--metric", "dirichlet", "--seed", "7", "--out", str(est))
        run("sample", "--manifest", MANIFEST, "--design", "traceroute",
            "--sources", "3", "--targets", "3", "--seed", "7", "--out", str(smp))
        run("experiment", "--manifest", MANIFEST, "--design", "bernoulli",
            "--p", "0.3,0.5", "--metric", "all", "--reps", "20", "--seed", "7",
            "--threads", threads, "--out", str(run_json))
        outputs.append((est.read_bytes(), smp.read_bytes(), run_json.read_bytes()))
    ok = outputs[0] == outputs[1]
    json.loads(outputs[0][2].decode())  # outputs are valid JSON
    report(9, ok, "estimate/sample/experiment outputs byte-identical across "
                  "reruns and --threads 1 vs 4")
