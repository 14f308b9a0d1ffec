import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from homsample import karate_manifest_path
from homsample.estimators import MODES_FOR_KIND

MANIFEST = str(karate_manifest_path())

# a warning raised in-process would add bytes to stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "homsample", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("sub", ["info", "homophily", "sample", "estimate",
                                 "experiment", "graphon"])
def test_help_exits_zero(sub):
    res = run_cli(sub, "--help")
    assert res.returncode == 0
    assert "--" in res.stdout


def test_unknown_subcommand_fails():
    res = run_cli("frobnicate")
    assert res.returncode != 0


def test_unknown_flag_fails():
    res = run_cli("info", "--manifest", MANIFEST, "--bogus")
    assert res.returncode != 0


def test_missing_dataset_is_an_error():
    res = run_cli("homophily")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_info(tmp_path):
    out = tmp_path / "info.json"
    res = run_cli("info", "--manifest", MANIFEST, "--out", str(out))
    assert res.returncode == 0
    assert "n=34" in res.stdout and "edges=78" in res.stdout
    data = json.loads(out.read_text())
    assert data["nodes"] == 34 and data["edges"] == 78
    assert data["class_counts"] == [17, 17]


def test_info_from_raw_files(tmp_path):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2\n")
    res = run_cli("info", "--edges", str(edges))
    assert res.returncode == 0 and "n=3" in res.stdout


def test_homophily_matches_table(tmp_path):
    out = tmp_path / "hom.json"
    res = run_cli("homophily", "--manifest", MANIFEST, "--out", str(out))
    assert res.returncode == 0
    assert "dirichlet_normalized: 0.1082" in res.stdout
    assert "edge_homophily: 0.8918" in res.stdout
    assert "node_homophily: 0.8882" in res.stdout
    data = json.loads(out.read_text())
    assert abs(data["dirichlet_normalized"] - 0.1082) < 5e-4


def test_sample_deterministic_and_filled(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("sample", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
            "--seed", "7")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["design"]["kind"] == "srs" and data["seed"] == 7
    assert all(e["pi"] is not None for e in data["edges"])


def test_estimate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("estimate", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
            "--metric", "dirichlet", "--seed", "7")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["kind"] == "dirichlet_normalized" and data["mode"] == "hajek_ratio"


def test_estimate_traceroute_approx_pi(tmp_path):
    out = tmp_path / "est.json"
    res = run_cli("estimate", "--manifest", MANIFEST, "--design", "traceroute",
                  "--sources", "3", "--targets", "3", "--metric", "dirichlet_total",
                  "--mode", "ht_total", "--seed", "3", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["variance_status"] == "unsupported"
    assert data["point"] > 0


def test_empirical_oracle_does_not_replay_the_sample():
    # an oracle run on the sample's own stream would see that very sample as
    # its one replication and give every sampled edge pi = 1
    for seed in ("1", "2", "3"):
        res = run_cli("sample", "--manifest", MANIFEST, "--design", "traceroute",
                      "--sources", "3", "--targets", "3", "--pi", "empirical",
                      "--pi-reps", "1", "--seed", seed)
        assert res.returncode == 0, res.stderr
        assert any(e["pi"] != 1.0 for e in json.loads(res.stdout)["edges"])


@pytest.mark.parametrize("command", [
    ("sample", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3"),
    ("estimate", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3"),
    ("experiment", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3", "--reps", "2"),
    ("graphon", "--sizes", "10", "--reps", "2"),
], ids=["sample", "estimate", "experiment", "graphon"])
def test_negative_seed_is_rejected_naming_the_flag(command):
    res = run_cli(*command, "--seed", "-3")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines()[-1].endswith(
        "error: argument --seed: must be a non-negative integer, got -3")


@pytest.mark.parametrize("command, message", [
    (("estimate", "--design", "srs", "--n-star", "5", "--frac", "0.9"),
     "error: --n-star and --frac both set the SRS sample size; give one"),
    (("estimate", "--design", "bernoulli", "--p", "0.3", "--sources", "3"),
     "error: --sources belongs to the traceroute design, not to bernoulli"),
    (("sample", "--design", "traceroute", "--sources", "2", "--targets", "2", "--n-star", "4"),
     "error: --n-star belongs to the srs design, not to traceroute"),
    (("experiment", "--design", "srs", "--frac", "0.3", "--p", "0.5", "--reps", "2"),
     "error: --p belongs to the bernoulli design, not to srs"),
], ids=["srs-size-twice", "bernoulli-sources", "traceroute-n-star", "srs-p"])
def test_contradicting_design_flags_are_rejected_naming_the_flag(command, message):
    # each of these used to run, silently ignoring one of the flags
    res = run_cli(command[0], "--manifest", MANIFEST, *command[1:])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines() == [message]


def test_experiment_rejects_a_metric_named_twice():
    res = run_cli("experiment", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                  "--metric", "edge,edge_homophily", "--reps", "3")
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "edge_homophily:hajek_ratio" in res.stderr


def test_experiment_outputs_and_thread_invariance(tmp_path):
    outs = {}
    for tag, threads in (("a", "1"), ("b", "3")):
        out = tmp_path / f"run_{tag}.json"
        scsv = tmp_path / f"sum_{tag}.csv"
        hcsv = tmp_path / f"hist_{tag}.csv"
        ecsv = tmp_path / f"est_{tag}.csv"
        res = run_cli("experiment", "--manifest", MANIFEST, "--design", "srs",
                      "--frac", "0.3", "--metric", "all", "--reps", "25",
                      "--seed", "11", "--threads", threads,
                      "--out", str(out), "--summary-csv", str(scsv),
                      "--hist-csv", str(hcsv), "--estimates-csv", str(ecsv))
        assert res.returncode == 0, res.stderr
        outs[tag] = (out.read_bytes(), scsv.read_bytes(), hcsv.read_bytes(),
                     ecsv.read_bytes())
    assert outs["a"] == outs["b"]
    record = json.loads(outs["a"][0].decode())
    assert record["dataset"] == "karate"
    assert len(record["sweeps"][0]["replications"]) == 25


def test_experiment_sweep_stdout():
    res = run_cli("experiment", "--manifest", MANIFEST, "--design", "bernoulli",
                  "--p", "0.3,0.5", "--metric", "dirichlet", "--mode",
                  "known_denominator", "--reps", "10", "--seed", "5")
    assert res.returncode == 0
    assert res.stdout.count("gt=0.1082") == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_without_valid_replications_is_null_not_nan(tmp_path):
    # at p = 0.02 no karate sample of seed 1 keeps an edge, so hajek has no valid point
    out, scsv = tmp_path / "run.json", tmp_path / "sum.csv"
    res = run_cli("experiment", "--manifest", MANIFEST, "--design", "bernoulli",
                  "--p", "0.02", "--metric", "edge,dirichlet_total", "--reps", "5",
                  "--seed", "1", "--out", str(out), "--summary-csv", str(scsv))
    assert res.returncode == 0, res.stderr
    assert "mean=nan bias=+nan std=nan invalid=5" in res.stdout
    record = json.loads(out.read_text(), parse_constant=_reject_constant)
    empty = record["sweeps"][0]["summaries"]["edge_homophily:hajek_ratio"]
    assert (empty["valid"], empty["mean"], empty["bias"], empty["std"]) == (0, None, None, None)
    assert empty["histogram"] == {"edges": [], "counts": []}
    rows = {r["kind"]: r for r in csv.DictReader(io.StringIO(scsv.read_text()))}
    assert [rows["edge_homophily"][c] for c in ("mean", "bias", "std")] == ["", "", ""]
    assert rows["dirichlet_total"]["mean"] == "0.0"


def test_graphon_identity_check():
    res = run_cli("graphon", "--check-identity", "--manifest", MANIFEST)
    assert res.returncode == 0
    assert "relative_residual" in res.stdout


def test_graphon_convergence(tmp_path):
    out = tmp_path / "conv.json"
    csv_path = tmp_path / "conv.csv"
    res = run_cli("graphon", "--sizes", "30,60", "--reps", "3", "--seed", "2",
                  "--out", str(out), "--csv", str(csv_path))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["phi"] == pytest.approx(0.1, abs=1e-12)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,mean,deviation" and len(lines) == 3


# sha256 of each output, recorded with numpy 2.4.6: the first four as
# written before designs took over their own realization and inclusion
# mechanics, the next three (which carry a variance) as written by the span-sum
# HT variance, the identity check as written from the dense n x n step pair, and
# the next five as written before the estimators read one metric table, and
# the two-field traceroute sweep as written before records serialized their own
# fields. A changed hash is a changed output: it must be justified in CHANGES.md.
PINNED_OUTPUTS = {
    "estimate-srs": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet", "--seed", "7"),
        "bedae483b4556a3ddb469b544bbcbd184f6a263e4160b362dad56afda138afd3"),
    "sample-traceroute": (
        ("sample", "--design", "traceroute", "--sources", "3", "--targets", "3", "--seed", "7"),
        "8e4a9aff447c43536b54701df68d479057304d87d6c196baab23ddd9420a83d7"),
    "experiment-bernoulli": (
        ("experiment", "--design", "bernoulli", "--p", "0.3,0.5", "--metric", "all",
         "--reps", "20", "--seed", "7", "--threads", "1"),
        "b032763d5961bb0df0dd0dc59d79a00828b9f03fa2186ea95aa147f6da63d5ed"),
    "sample-bernoulli": (
        ("sample", "--design", "bernoulli", "--p", "0.3", "--seed", "7"),
        "a0cad77609525911682866d32e06b1a65768433e018b31c985b8c4f9f0564e78"),
    "estimate-srs-edge-known-denominator": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "edge",
         "--mode", "known_denominator", "--seed", "7"),
        "2bdf9d7678793cd4222c0a976965c5c7c5fc1dac8373c081015e73b07c722ef4"),
    "estimate-srs-dirichlet-total": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet_total",
         "--mode", "ht_total", "--seed", "7"),
        "fa0748b6fb6fa78e9d7c769e6c3423cf3541702f8706c8d1a1e9f40307456fe0"),
    "estimate-bernoulli-dirichlet-known-denominator": (
        ("estimate", "--design", "bernoulli", "--p", "0.3", "--metric", "dirichlet",
         "--mode", "known_denominator", "--seed", "7"),
        "88690b1f808cb29d32f1ec223b5dc934e48c94b66634896c67b71622a2b55de5"),
    "graphon-check-identity": (
        ("graphon", "--check-identity"),
        "b2a59b394a4c6d2a5044463acd7618b59864195a06646260ff3289b24ca396ec"),
    "estimate-srs-dirichlet-total-plug-in": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet_total",
         "--mode", "plug_in", "--seed", "7"),
        "4f152300e3076f719f2ed7ec8c7116f57d2547fefbd852ca4319ec3cfd436678"),
    "estimate-srs-dirichlet-plug-in": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet",
         "--mode", "plug_in", "--seed", "7"),
        "cb7688ff4ca04ceae172a05622973d2f34346537bd49c987280315b91221314d"),
    "estimate-bernoulli-edge-hajek-ratio": (
        ("estimate", "--design", "bernoulli", "--p", "0.3", "--metric", "edge",
         "--mode", "hajek_ratio", "--seed", "7"),
        "963ffde0e99e451b852d75b2a0cad06dffdcd8d9e28c12077f47493cfbf98c57"),
    "estimate-srs-node-plug-in": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "node",
         "--mode", "plug_in", "--seed", "7"),
        "6b480a46eb165cc6ea4be312c90719397209aff770fa7fef421b6bb060cd3af1"),
    "experiment-srs-plug-in": (
        ("experiment", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet_total,edge",
         "--mode", "plug_in", "--reps", "20", "--seed", "7", "--threads", "1"),
        "0f1b69a5eb785c4c64131db59cf04d8dcf521adb9515a8d90db15167dfa37b73"),
    "experiment-traceroute-sweep": (
        ("experiment", "--design", "traceroute", "--sources", "1,2", "--targets", "1,2",
         "--metric", "dirichlet_total", "--reps", "10", "--seed", "7"),
        "3b50054889fa4aaefa5efe1c0b6acca93fb0c136d4bd13a707f43134e76aa757"),
}

# sha256 of the CSV files of the pinned experiment-bernoulli command, recorded
# before records serialized their own fields
PINNED_CSVS = {
    "--summary-csv": "67f0dcd364dc39c04d70bc8829259d257c9abbc206b5a556e7133fdd11994946",
    "--hist-csv": "ef332dd5e2a9171e478d0f15188339751f90b0b3ae3971db0826af05b33e8ff5",
    "--estimates-csv": "ecd3fda6773c4c6b77aaab60a03fe9eae980e734dc51b15dc2f81de3a271c40f",
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_pinned(tmp_path, name):
    args, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out.json"
    res = run_cli(args[0], "--manifest", MANIFEST, *args[1:], "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_experiment_csv_bytes_pinned(tmp_path):
    args = PINNED_OUTPUTS["experiment-bernoulli"][0]
    paths = {flag: tmp_path / f"{flag[2:]}.csv" for flag in PINNED_CSVS}
    flags = [str(x) for item in paths.items() for x in item]
    res = run_cli(args[0], "--manifest", MANIFEST, *args[1:], *flags)
    assert res.returncode == 0, res.stderr
    digests = {flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()}
    assert digests == PINNED_CSVS


@pytest.mark.parametrize("kind", ["dirichlet_total", "dirichlet_normalized",
                                  "edge_homophily", "node_homophily"])
def test_estimate_defaults_to_the_metrics_first_mode(tmp_path, kind):
    args = ("estimate", "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
            "--metric", kind, "--seed", "7")
    implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
    res = run_cli(*args, "--out", str(implicit))
    assert res.returncode == 0, res.stderr
    run_cli(*args, "--mode", MODES_FOR_KIND[kind][0], "--out", str(explicit))
    assert implicit.read_bytes() == explicit.read_bytes()


def test_empirical_oracle_on_an_empty_edge_list(tmp_path):
    # a 0-node, 0-edge graph: the oracle's blocks must not divide by its size
    edges = tmp_path / "e.txt"
    edges.write_text("")
    res = run_cli("sample", "--edges", str(edges), "--design", "bernoulli", "--p", "0.5",
                  "--pi", "empirical")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["parent_node_count"] == 0 and data["nodes"] == [] and data["edges"] == []


def test_graphon_on_an_empty_graph_is_an_input_error(tmp_path):
    edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
    edges.write_text("")
    labels.write_text("")
    res = run_cli("graphon", "--check-identity", "--edges", str(edges),
                  "--labels", str(labels), "--classes", "2")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize("flag", ["--p-in", "--p-out"])
def test_graphon_rejects_a_nan_probability_as_out_of_range(flag):
    res = run_cli("graphon", flag, "nan", "--sizes", "10", "--reps", "1")
    assert res.returncode == 2
    assert res.stderr == "error: grid values must lie in [0, 1]\n"


@pytest.mark.parametrize("sizes", ["0,10", "-5"])
def test_graphon_rejects_sizes_below_one(sizes):
    res = run_cli("graphon", f"--sizes={sizes}", "--reps", "1")
    assert res.returncode == 2
    assert res.stderr == "error: sizes must be >= 1, got " + sizes.split(",")[0] + "\n"
