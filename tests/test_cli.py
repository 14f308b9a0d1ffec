import csv
import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from homsample import cli, graphon, harness, karate_manifest_path
from homsample.estimators import MODES_FOR_KIND
from homsample.metrics import METRIC_KINDS

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


def test_traceroute_experiment_does_not_import_numpy_ma(tmp_path):
    # numpy's plain 1-D np.unique imports numpy.ma, about 30 ms of a process
    args = ["experiment", "--manifest", MANIFEST, "--design", "traceroute",
            "--sources", "2", "--targets", "2", "--metric", "all", "--reps", "20",
            "--pi", "empirical", "--pi-reps", "200", "--out", str(tmp_path / "out.json")]
    code = ("import sys; from homsample import cli; "
            f"code = cli.main({args!r}); sys.exit(code or 'numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_estimate_imports_neither_the_harness_nor_the_graphon_nor_shortest_paths(tmp_path):
    args = ["estimate", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
            "--out", str(tmp_path / "out.json")]
    code = ("import sys; from homsample import cli; code = cli.main({!r}); "
            "print(sorted(m for m in ('homsample.harness', 'homsample.graphon', "
            "'homsample.shortest_paths') if m in sys.modules)); sys.exit(code)").format(args)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


@pytest.mark.parametrize("command", [
    ("sample",),
    ("estimate",),
    ("experiment", "--reps", "2"),
], ids=["sample", "estimate", "experiment"])
@pytest.mark.parametrize("pi_reps", ["-5", "100000"])
def test_pi_reps_under_analytic_pi_is_an_input_error(command, pi_reps):
    # the analytic model runs no oracle, so the count would be ignored
    res = run_cli(*command, "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
                  "--pi-reps", pi_reps)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines() == ["error: --pi-reps belongs to --pi empirical, "
                                       "not to --pi analytic"]


def test_pi_reps_defaults_to_100000_under_empirical_pi():
    parser = cli.build_parser()
    for pi in ("analytic", "empirical"):
        args = parser.parse_args(["estimate", "--design", "srs", "--pi", pi])
        assert cli._pi_replications(args) == 100_000


def test_empirical_oracle_does_not_replay_the_sample():
    # an oracle run on the sample's own stream would see that very sample as
    # its one replication and give every sampled edge pi = 1
    for seed in ("1", "2", "3"):
        res = run_cli("sample", "--manifest", MANIFEST, "--design", "traceroute",
                      "--sources", "3", "--targets", "3", "--pi", "empirical",
                      "--pi-reps", "1", "--seed", seed)
        assert res.returncode == 0, res.stderr
        assert any(e["pi"] != 1.0 for e in json.loads(res.stdout)["edges"])


@pytest.mark.parametrize("command, message", [
    (("experiment", "--reps", "0", "--pi-reps", "50"), "error: replications must be >= 1"),
    (("experiment", "--reps", "2", "--pi-reps", "0"), "error: pi replications must be >= 1, got 0"),
    (("estimate", "--pi-reps", "0"), "error: pi replications must be >= 1, got 0"),
], ids=["reps", "pi-reps", "estimate-pi-reps"])
def test_zero_replications_are_rejected_naming_the_count(command, message):
    # --reps 0 and --pi-reps 0 used to print the same message
    res = run_cli(command[0], "--manifest", MANIFEST, "--design", "traceroute", "--sources", "2",
                  "--targets", "2", "--metric", "dirichlet_total", "--pi", "empirical", *command[1:])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines() == [message]


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


@pytest.mark.parametrize("command", [
    ("homophily",),
    ("experiment", "--design", "bernoulli", "--p", "0.5", "--metric", "dirichlet_total",
     "--reps", "3"),
])
def test_a_non_finite_output_is_an_input_error(tmp_path, command):
    # a weight of 1e308 on an edge joining two classes overflows the Dirichlet
    # energy to inf; JSON has no inf, so no file is written and the exit is 2
    edges, labels, out = tmp_path / "e.txt", tmp_path / "l.txt", tmp_path / "out.json"
    edges.write_text("0 1 1e308\n1 2 1\n2 3 1\n0 3 1\n")
    labels.write_text("0 0\n1 1\n2 0\n3 1\n")
    res = run_cli(command[0], "--edges", str(edges), "--labels", str(labels), "--classes", "2",
                  *command[1:], "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == (
        "error: Out of range float values are not JSON compliant: inf")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("homophily",),
    ("experiment", "--design", "bernoulli", "--p", "0.5", "--reps", "3"),
    ("experiment", "--design", "bernoulli", "--p", "0.5", "--metric", "dirichlet_total",
     "--reps", "3"),
    ("estimate", "--design", "bernoulli", "--p", "0.5", "--metric", "dirichlet",
     "--mode", "known_denominator"),
])
def test_an_overflowing_total_edge_weight_is_an_input_error(tmp_path, command):
    # the weights sum past the largest float64: no edge metric of this graph is
    # exact, so each command names the first metric it refuses and exits 2,
    # with or without an output file
    edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
    edges.write_text("0 1 1e308\n1 2 1e308\n2 0 1\n")
    labels.write_text("0 0\n1 1\n2 0\n")
    res = run_cli(command[0], "--edges", str(edges), "--labels", str(labels), "--classes", "2",
                  *command[1:])
    assert res.returncode == 2
    assert res.stdout == ""
    assert re.fullmatch(r"error: (dirichlet_total|dirichlet_normalized) is undefined: the total "
                        r"edge weight overflows float64 \(inf\)\n", res.stderr)


def test_a_record_refused_at_one_row_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the record is written as it is encoded, into a temporary file beside
    # --out; a value refused after some rows are written removes that file
    original = harness.run_experiment

    def run_experiment(cfg, dataset):
        record = original(cfg, dataset)
        record.sweeps[0].estimates["dirichlet_total:ht_total"].variances[7] = float("inf")
        return record

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    out = tmp_path / "run.json"
    code = cli.main(["experiment", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                     "--metric", "dirichlet_total", "--reps", "20", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: Out of range float values are not JSON compliant: inf\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--summary-csv", "--hist-csv", "--estimates-csv"])
def test_an_output_in_a_missing_directory_is_refused_before_the_first_replication(
        tmp_path, monkeypatch, capsys, flag):
    def run_experiment(cfg, dataset):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    path = str(tmp_path / "missing" / "out")
    code = cli.main(["experiment", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                     "--reps", "5", flag, path])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("flag", ["--out", "--summary-csv", "--hist-csv", "--estimates-csv"])
def test_an_output_that_is_a_directory_is_refused_before_the_first_replication(
        tmp_path, monkeypatch, capsys, flag):
    def run_experiment(cfg, dataset):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    path = str(tmp_path)
    code = cli.main(["experiment", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                     "--reps", "5", flag, path])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {path!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_output_in_a_missing_directory_is_named_as_given(tmp_path, capsys):
    path = str(tmp_path / "missing" / "r.json")
    code = cli.main(["estimate", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                     "--out", path])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"
    # the writer, too, names the output and not the temporary file beside it
    with pytest.raises(FileNotFoundError) as info:
        cli._write_pieces(["{}\n"], path)
    assert info.value.filename == path
    assert list(tmp_path.iterdir()) == []


def test_every_kind_and_short_name_resolves_to_its_kind():
    names = {"dirichlet": "dirichlet_normalized", "edge": "edge_homophily",
             "node": "node_homophily", **{kind: kind for kind in METRIC_KINDS}}
    for name, kind in names.items():
        assert cli._metric_pair(name, None) == (kind, MODES_FOR_KIND[kind][0])
        for mode in MODES_FOR_KIND[kind]:
            assert cli._metric_pair(name, mode) == (kind, mode)
    with pytest.raises(ValueError, match=re.escape(
            f"unknown metric 'modularity' (choices: {', '.join(sorted(names))})")):
        cli._metric_pair("modularity", None)


NOT_SUPPORTED = "mode 'ht_total' not supported for 'node_homophily' (supported: plug_in)"
PI_REPS = "pi replications must be >= 1, got 0"


@pytest.mark.parametrize("args, message", [
    (["estimate", "--design", "srs", "--frac", "0.3", "--metric", "node", "--mode", "ht_total",
      "--pi", "empirical"], NOT_SUPPORTED),
    (["estimate", "--design", "bernoulli", "--p", "0.1", "--metric", "node", "--mode", "ht_total",
      "--pi", "empirical"], NOT_SUPPORTED),
    (["experiment", "--design", "bernoulli", "--p", "0.3", "--metric", "node", "--mode", "ht_total"],
     NOT_SUPPORTED),
    (["experiment", "--design", "bernoulli"], "bernoulli design requires --p"),
    (["sample", "--design", "traceroute", "--sources", "2"],
     "traceroute design requires --sources and --targets"),
    (["experiment", "--design", "bernoulli", "--p", "0.3", "--metric", "edge,edge_homophily"],
     "metric pair edge_homophily:hajek_ratio is listed more than once"),
    (["experiment", "--design", "bernoulli", "--p", "1.5"], "p must be in (0, 1], got 1.5"),
    (["sample", "--design", "bernoulli", "--p", "-1"], "p must be in (0, 1], got -1.0"),
    (["experiment", "--design", "srs", "--frac", "2"], "SRS frac must be in (0, 1], got 2.0"),
    (["estimate", "--design", "srs", "--frac", "0"], "SRS frac must be in (0, 1], got 0.0"),
    (["experiment", "--design", "bernoulli", "--p", "0.3", "--reps", "0"],
     "replications must be >= 1"),
    (["experiment", "--design", "bernoulli", "--p", "0.3", "--bins", "0"], "bins must be >= 1"),
    *(([command, "--design", "bernoulli", "--p", "0.3", "--pi", "empirical", "--pi-reps", "0"],
       PI_REPS) for command in ("experiment", "estimate", "sample")),
    (["experiment", "--design", "bernoulli", "--p", "0.3", "--bins", "10001"],
     "bins must be at most 10000, got 10001"),
])
def test_a_refusal_that_needs_no_dataset_comes_before_the_load(monkeypatch, capsys, args, message):
    def load(args, need_labels=True):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(cli, "_load_from_flags", load)
    assert cli.main([*args, "--manifest", MANIFEST]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, first, second", [
    *(("experiment", a, b) for a, b in itertools.combinations(
        ["--out", "--summary-csv", "--hist-csv", "--estimates-csv"], 2)),
    ("graphon", "--out", "--csv"),
])
def test_two_outputs_that_name_one_file_are_refused_before_any_work(
        tmp_path, monkeypatch, capsys, command, first, second):
    def run(*_):
        raise AssertionError("the command ran")

    monkeypatch.setattr(harness, "run_experiment", run)
    monkeypatch.setattr(graphon, "convergence_experiment", run)
    monkeypatch.chdir(tmp_path)
    args = {"experiment": ["--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3",
                           "--reps", "5"],
            "graphon": ["--sizes", "10", "--reps", "1"]}[command]
    # one file, named once relative to the working directory and once in full
    code = cli.main([command, *args, first, "out", second, str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {first} and {second} both name the file {str(tmp_path / 'out')!r}; "
        "give each output its own\n")
    assert list(tmp_path.iterdir()) == []


def _peak_rss_mb(*args) -> float:
    """Peak RSS of one CLI run. A small parent spawns it: a child's peak
    starts at the peak of the process it is spawned from."""
    script = ("import resource, subprocess, sys; "
              "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    res = subprocess.run([sys.executable, "-c", script, sys.executable, "-m", "homsample", *args],
                         capture_output=True, text=True, check=True)
    return int(res.stdout) / 1024    # KiB on Linux


def test_info_counts_classes_up_to_the_largest_label(tmp_path):
    # a class count far above the labels present costs no memory and no
    # bytes; listing all 2^24 counts peaked at 390 MB and wrote 117 MB
    data_dir = karate_manifest_path().parent
    dataset = ("--edges", str(data_dir / "karate_edges.txt"),
               "--labels", str(data_dir / "karate_labels.txt"))
    peaks, sizes = {}, {}
    for classes in (2, 2 ** 24):
        out = tmp_path / f"info_{classes}.json"
        peaks[classes] = _peak_rss_mb("info", *dataset, "--classes", str(classes),
                                      "--out", str(out))
        info = json.loads(out.read_text())
        assert (info["classes"], info["class_counts"]) == (classes, [17, 17])
        sizes[classes] = out.stat().st_size
    assert peaks[2 ** 24] <= peaks[2] + 5
    assert sizes[2 ** 24] < 1000


def test_json_outputs_are_encoded_without_holding_every_chunk(tmp_path):
    # json.dumps(indent=2) keeps each of the pure-Python encoder's chunks in a
    # list before joining them, near 10 bytes traced per output byte here;
    # json.dump into a StringIO measured 2.0 to 2.3, and writing the chunks to
    # the file as they come 0.04
    n = 30_000
    obj = {"nodes": list(range(n)),
           "edges": [{"i": k, "j": k + 1, "w": 1.5, "pi": 0.09} for k in range(n)]}
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit_json(obj, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(obj, indent=2, allow_nan=False) + "\n"
    assert peak <= 3 * len(text)


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
# fields. Every experiment record was re-recorded when a replication's estimate
# entries dropped the kind, mode, sizes, design and seed that their key, their
# replication and their sweep hold. The two traceroute analytic-pi hashes were
# re-recorded when pi's expm1 left numpy's AVX512 kernel for libm's, which numpy's
# AVX2 kernel matches. A changed hash is a changed output: it must be justified
# in CHANGES.md.
PINNED_OUTPUTS = {
    "estimate-srs": (
        ("estimate", "--design", "srs", "--frac", "0.3", "--metric", "dirichlet", "--seed", "7"),
        "bedae483b4556a3ddb469b544bbcbd184f6a263e4160b362dad56afda138afd3"),
    "sample-traceroute": (
        ("sample", "--design", "traceroute", "--sources", "3", "--targets", "3", "--seed", "7"),
        "06a29eec1464c8186b35415497772d9f9a8893166ca715e087a11e661a50fd9a"),
    "experiment-bernoulli": (
        ("experiment", "--design", "bernoulli", "--p", "0.3,0.5", "--metric", "all",
         "--reps", "20", "--seed", "7", "--threads", "1"),
        "2594f10a5392ae439a40c8fc5bbc400cc34e5e0a9f51bc1cb63a7f61b9f427ea"),
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
        "9c1e7bbfd19edc8561f60699a3cbc45238e8fa456ead7837de5b7b35affde525"),
    "experiment-traceroute-sweep": (
        ("experiment", "--design", "traceroute", "--sources", "1,2", "--targets", "1,2",
         "--metric", "dirichlet_total", "--reps", "10", "--seed", "7"),
        "fa4db1f9997668c0fd9ac985043f92450ee87ca9b21ffb84501c464fc8b13141"),
    # seeds of two and of three 32-bit words (2**64 - 1 and 2**70), recorded
    # while every stream was seeded through numpy's own SeedSequence; the
    # empirical traceroute one re-recorded when the oracle's walkers took to
    # drawing one uniform a hop
    "experiment-bernoulli-seed-2-64-minus-1": (
        ("experiment", "--design", "bernoulli", "--p", "0.3", "--metric", "all",
         "--reps", "20", "--seed", "18446744073709551615"),
        "f0c0aae43e04fdd43be76b7080c1d04752c61aacb2e0c6e55d56534e3f39db76"),
    "experiment-traceroute-empirical-seed-2-70": (
        ("experiment", "--design", "traceroute", "--sources", "2", "--targets", "2",
         "--metric", "dirichlet_total", "--reps", "10", "--pi", "empirical",
         "--pi-reps", "2000", "--seed", "1180591620717411303424"),
        "2c5e9413610d30005d6f9f48f204a3deced5835bd80c1b3745bbd04637054f3c"),
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


@pytest.mark.parametrize("command", [
    ("homophily",),
    ("experiment", "--design", "bernoulli", "--p", "0.5", "--metric", "dirichlet_total",
     "--reps", "3"),
    ("graphon", "--check-identity"),
])
def test_a_non_finite_exact_metric_is_refused_before_anything_is_printed(tmp_path, command):
    # the Dirichlet energy of this graph overflows to inf; without --out no
    # JSON encoder sees it, so the exact metric itself refuses it
    edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
    edges.write_text("0 1 1e308\n1 2 1\n2 3 1\n0 3 1\n")
    labels.write_text("0 0\n1 1\n2 0\n3 1\n")
    res = run_cli(command[0], "--edges", str(edges), "--labels", str(labels), "--classes", "2",
                  *command[1:])
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: Out of range float values are not JSON compliant: inf\n"


@pytest.mark.parametrize("out", [False, True])
def test_info_refuses_an_overflowing_total_edge_weight(tmp_path, out):
    edges, path = tmp_path / "e.txt", tmp_path / "info.json"
    edges.write_text("0 1 1e308\n1 2 1e308\n2 0 1\n")
    res = run_cli("info", "--edges", str(edges), *(["--out", str(path)] if out else []))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == ("error: total_edge_weight is undefined: the total edge weight "
                          "overflows float64 (inf)\n")
    assert not path.exists()


@pytest.mark.parametrize("args, flag", [
    (("--manifest", MANIFEST, "--sizes", "20", "--reps", "1"), "--manifest"),
    (("--sizes", "20", "--reps", "1", "--classes", "2"), "--classes"),
    (("--check-identity", "--manifest", MANIFEST, "--sizes", "20", "--p-in", "0.9"), "--p-in"),
    (("--check-identity", "--manifest", MANIFEST, "--seed", "3"), "--seed"),
    (("--check-identity", "--manifest", MANIFEST, "--csv"), "--csv"),
])
def test_graphon_rejects_a_flag_of_the_mode_it_does_not_run(tmp_path, args, flag):
    csv_path = tmp_path / "conv.csv"
    res = run_cli("graphon", *args, *([str(csv_path)] if args[-1] == "--csv" else []))
    assert (res.returncode, res.stdout) == (2, "")
    mine, other = "the convergence study", "--check-identity"
    if "--check-identity" in args:
        mine, other = other, mine
    assert res.stderr == f"error: {flag} belongs to {other}, not to {mine}\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("classes", ["-3", "0"])
def test_a_class_count_below_one_is_an_input_error(tmp_path, classes):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    res = run_cli("info", "--edges", str(empty), "--labels", str(empty), "--classes", classes)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: 'class_count' is not an integer >= 1: {classes}\n"


@pytest.mark.parametrize("command, args, message", [
    ("info", ("--manifest", MANIFEST, "--edges", "{edges}", "--labels", "/nonexistent",
              "--classes", "9"), "--edges and --manifest both name the dataset; give one"),
    ("info", ("--edges", "{edges}", "--classes", "3"), "--classes requires --labels"),
    ("homophily", ("--manifest", MANIFEST, "--classes", "5"),
     "--classes and --manifest both name the dataset; give one"),
])
def test_a_dataset_flag_that_would_be_ignored_is_an_input_error(tmp_path, command, args, message):
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n")
    res = run_cli(command, *(a.format(edges=edges) for a in args))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {message}\n"


def test_the_commands_that_draw_a_sample_write_its_design_and_seed(tmp_path):
    # a design is its parameters and a sample what was observed: the
    # command that drew the sample writes down how, after or before its fields
    est, smp = tmp_path / "estimate.json", tmp_path / "sample.json"
    res = run_cli("estimate", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.4",
                  "--metric", "dirichlet_total", "--seed", "55", "--out", str(est))
    assert res.returncode == 0, res.stderr
    report = json.loads(est.read_text())
    assert list(report) == ["dataset", "kind", "mode", "point", "variance", "variance_status",
                            "sampled_nodes", "sampled_edges", "design", "seed"]
    assert report["design"] == {"kind": "bernoulli", "seed": 55, "p": 0.4}
    assert report["seed"] == 55
    res = run_cli("sample", "--manifest", MANIFEST, "--design", "srs", "--n-star", "8",
                  "--seed", "3", "--out", str(smp))
    assert res.returncode == 0, res.stderr
    sample = json.loads(smp.read_text())
    assert list(sample)[:3] == ["design", "seed", "parent_node_count"]
    assert sample["design"] == {"kind": "srs", "seed": 3, "n_star": 8} and sample["seed"] == 3


def _experiment_on_an_empty_graph(tmp_path, *design):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "homsample", "experiment", "--edges", str(empty),
         "--labels", str(empty), "--classes", "1", "--design", *design,
         "--metric", "dirichlet_total", "--reps", "3", "--out", str(tmp_path / "run.json")],
        capture_output=True, text=True)


def test_experiment_on_a_graph_without_nodes(tmp_path):
    # a block's row count divides by the graph's nodes and edges
    res = _experiment_on_an_empty_graph(tmp_path, "bernoulli", "--p", "0.5")
    assert res.returncode == 0, res.stderr
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["ground_truth"] == {"dirichlet_total": 0.0}
    (sweep,) = record["sweeps"]
    assert [r["estimates"]["dirichlet_total:ht_total"] for r in sweep["replications"]] == [
        {"point": 0.0, "variance": 0.0, "variance_status": "exact_design"}] * 3


@pytest.mark.parametrize("design, message", [
    (("srs", "--n-star", "1"), "n_star must be in [1, 0], got 1"),
    (("traceroute", "--sources", "1", "--targets", "1"), "n_sources must be in [1, 0], got 1"),
], ids=["srs", "traceroute"])
def test_experiment_on_a_graph_without_nodes_refuses_a_fixed_size_design(tmp_path, design,
                                                                         message):
    res = _experiment_on_an_empty_graph(tmp_path, *design)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


NON_FINITE = "non-finite estimate for dirichlet_total/ht_total"


def _on_a_four_cycle_at_1e160(tmp_path, command, *args):
    edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
    edges.write_text("0 1 1e160\n1 2 1e160\n2 3 1e160\n3 0 1e160\n")
    labels.write_text("0 0\n1 1\n2 0\n3 1\n")
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "homsample", command, "--edges", str(edges),
         "--labels", str(labels), "--classes", "2", "--design", "bernoulli", "--p", "0.9",
         "--metric", "dirichlet_total", "--seed", "1", *args],
        capture_output=True, text=True)


def test_a_non_finite_variance_makes_its_estimate_invalid(tmp_path):
    # every point is finite, but a sample total of 2e160 or more squares to inf
    res = _on_a_four_cycle_at_1e160(tmp_path, "estimate", "--mode", "ht_total")
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {NON_FINITE}\n")
    res = _on_a_four_cycle_at_1e160(tmp_path, "experiment", "--reps", "20",
                                    "--out", str(tmp_path / "run.json"))
    assert res.returncode == 0, res.stderr
    (sweep,) = json.loads((tmp_path / "run.json").read_text())["sweeps"]
    assert [r["estimates"]["dirichlet_total:ht_total"] for r in sweep["replications"]] == [
        {"invalid": NON_FINITE}] * 20


@pytest.mark.parametrize("args, flag", [
    (("estimate", "--manifest", MANIFEST, "--design", "bernoulli", "--p", ","), "--p"),
    (("sample", "--manifest", MANIFEST, "--design", "srs", "--frac", ","), "--frac"),
    (("experiment", "--manifest", MANIFEST, "--design", "srs", "--n-star", ",", "--reps", "2"),
     "--n-star"),
    (("experiment", "--manifest", MANIFEST, "--design", "traceroute", "--sources", ",",
      "--targets", ",", "--reps", "2"), "--sources"),
    (("graphon", "--sizes", ",", "--reps", "1"), "--sizes"),
], ids=["p", "frac", "n-star", "sources", "sizes"])
def test_a_comma_list_with_no_value_is_an_input_error_naming_its_flag(args, flag):
    res = run_cli(*args)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {flag} lists no value\n"


@pytest.mark.parametrize("args, message", [
    (("estimate", "--manifest", MANIFEST, "--design", "bernoulli", "--p", "0.3,abc"),
     "--p: invalid float value 'abc'"),
    (("estimate", "--manifest", MANIFEST, "--design", "srs", "--n-star", "1e3"),
     "--n-star: invalid int value '1e3'"),
    (("experiment", "--manifest", MANIFEST, "--design", "traceroute", "--sources", "2.5",
      "--targets", "2", "--reps", "2"), "--sources: invalid int value '2.5'"),
    (("graphon", "--sizes", "10,x", "--reps", "1"), "--sizes: invalid int value 'x'"),
], ids=["p", "n-star", "sources", "sizes"])
def test_a_comma_list_value_that_does_not_parse_is_an_input_error_naming_its_flag(args, message):
    res = run_cli(*args)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ("estimate", "--metric", "node"),
    ("estimate", "--metric", "edge", "--mode", "plug_in", "--pi-reps", "3"),
    ("experiment", "--metric", "dirichlet_total,edge", "--mode", "plug_in", "--pi-reps", "3",
     "--reps", "2"),
    ("experiment", "--metric", "node", "--reps", "2"),
], ids=["estimate-node", "estimate-plug-in", "experiment-plug-in", "experiment-node"])
def test_empirical_pi_is_refused_where_no_mode_reads_pi(args):
    # a plug-in estimate builds no inclusion model, so the record would state an oracle never run
    res = run_cli(args[0], "--manifest", MANIFEST, "--design", "srs", "--frac", "0.3",
                  "--pi", "empirical", *args[1:])
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: --pi empirical belongs to a mode that reads pi, not to plug_in\n"


RERUN_DESIGNS = {"bernoulli": ("--p", "0.3"), "srs": ("--n-star", "10"),
                 "traceroute": ("--sources", "2", "--targets", "3")}


@pytest.mark.parametrize("metric, mode", [("dirichlet_total", "ht_total"),
                                          ("edge", "hajek_ratio"), ("node", "plug_in")])
@pytest.mark.parametrize("design", list(RERUN_DESIGNS))
def test_each_replication_reruns_alone_through_estimate(tmp_path, capsys, design, metric, mode):
    # estimate --seed <row seed> with the sweep's parameters prints the row,
    # or refuses it with the row's reason
    flags = ["--manifest", MANIFEST, "--design", design, *RERUN_DESIGNS[design],
             "--metric", metric, "--mode", mode, "--pi", "analytic"]
    out = tmp_path / "run.json"
    assert cli.main(["experiment", *flags, "--reps", "6", "--seed", "7", "--out", str(out)]) == 0
    (sweep,) = json.loads(out.read_text())["sweeps"]
    capsys.readouterr()
    for row in sweep["replications"]:
        code = cli.main(["estimate", *flags, "--seed", str(row["seed"])])
        res = capsys.readouterr()
        (entry,) = row["estimates"].values()
        if "invalid" in entry:
            assert (code, res.out, res.err) == (2, "", f"error: {entry['invalid']}\n")
            continue
        assert code == 0, res.err
        report = json.loads(res.out)
        assert {k: report[k] for k in (*entry, "sampled_nodes", "sampled_edges")} == {
            **entry, "sampled_nodes": row["sampled_nodes"], "sampled_edges": row["sampled_edges"]}
        assert report["seed"] == row["seed"]
        assert report["design"] == {"kind": design, "seed": row["seed"], **sweep["params"]}
