"""Workload definitions: dataset set-up, per-operation CLI arguments and
output checks.

Every workload is one CLI subcommand run against one dataset. Datasets
are either the bundled karate fixture or a two-block W-random graph
generated from the workload seed. Reference values are computed here
with numpy from the dataset files, independently of homsample, and every
operation's outputs are checked against them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KARATE = Path("src", "homsample", "data", "karate.json")
REL_TOL = 1e-12      # ground truth against the reference
Z_BOUND = 5.0        # |mean - truth| <= Z_BOUND * std / sqrt(valid) for unbiased designs
SRS_FRAC = 0.3


class SetupError(RuntimeError):
    """The generated dataset cannot be written and reloaded faithfully."""


@dataclass(frozen=True)
class WRandom:
    """Two-block W-random graph with labels given by the latent block."""

    n: int
    p_in: float
    p_out: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "experiment" or "estimate"
    graph: WRandom | None        # None: the bundled karate fixture
    args: tuple                  # design, metric and size flags
    sweeps: int = 1
    reps: int = 1
    unbiased: tuple = ()         # summary keys checked for unbiasedness per operation

    def op_args(self, manifest: Path, out_dir: Path, seed: int) -> tuple[list, list]:
        """CLI arguments for one operation and the output files it writes."""
        outs = [out_dir / "out.json"]
        argv = [self.command, "--manifest", str(manifest), *self.args, "--seed", str(seed),
                "--out", str(outs[0])]
        if self.command == "experiment":
            outs.append(out_dir / "summary.csv")
            argv += ["--threads", "2", "--summary-csv", str(outs[1])]
        return argv, outs


WORKLOADS = {w.name: w for w in (
    Workload("karate-sweep", "experiment", None,
             ("--design", "bernoulli", "--p", "0.1,0.3,0.5",
              "--metric", "dirichlet,edge,node,dirichlet_total", "--reps", "500"),
             sweeps=3, reps=500, unbiased=("dirichlet_total:ht_total",)),
    Workload("srs-variance", "estimate", WRandom(4000, 0.008, 0.003),
             ("--design", "srs", "--frac", str(SRS_FRAC), "--metric", "dirichlet",
              "--mode", "known_denominator")),
    Workload("traceroute-betweenness", "experiment", WRandom(200, 0.13, 0.05),
             ("--design", "traceroute", "--sources", "2,4", "--targets", "2,4",
              "--metric", "dirichlet_total,dirichlet,edge", "--reps", "200"),
             sweeps=2, reps=200),
    Workload("traceroute-oracle", "experiment", None,
             ("--design", "traceroute", "--sources", "1,2,3", "--targets", "1,2,3",
              "--metric", "dirichlet_total,dirichlet,edge", "--pi", "empirical",
              "--pi-reps", "4000", "--reps", "200"),
             sweeps=3, reps=200, unbiased=("dirichlet_total:ht_total",)),
)}


# -- reference values ----------------------------------------------------------

def _rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts:
                yield parts


def reference_metrics(edge_file: Path, label_file: Path) -> dict:
    """Exact metrics of a labelled edge-list dataset, by plain numpy."""
    rows = list(_rows(edge_file))
    i = np.array([int(r[0]) for r in rows])
    j = np.array([int(r[1]) for r in rows])
    w = np.array([float(r[2]) if len(r) == 3 else 1.0 for r in rows])
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    pairs, inverse = np.unique(np.stack([lo, hi]), axis=1, return_inverse=True)
    i, j = pairs
    w = np.bincount(inverse.ravel(), weights=w)
    labels_by_node = {int(r[0]): int(r[1]) for r in _rows(label_file)}
    labels = np.array([labels_by_node[v] for v in range(len(labels_by_node))])
    same = labels[i] == labels[j]
    total_w = w.sum()
    dirichlet = float((2.0 * w[~same]).sum())   # ||e_a - e_b||^2 = 2 for distinct one-hot rows
    n = len(labels)
    deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    same_deg = np.bincount(i, weights=same, minlength=n) + np.bincount(j, weights=same, minlength=n)
    active = deg > 0
    return {
        "dirichlet_total": dirichlet,
        "dirichlet_normalized": dirichlet / (2.0 * total_w),
        "edge_homophily": float(w[same].sum() / total_w),
        "node_homophily": float(np.mean(same_deg[active] / deg[active])),
    }


@dataclass
class Dataset:
    manifest: Path
    truth: dict
    node_count: int


def setup_dataset(wl: Workload, root: Path, work: Path, seed: int) -> Dataset:
    """Generate and write the workload's dataset and compute its reference values."""
    if wl.graph is None:
        manifest = root / KARATE
        spec = json.loads(manifest.read_text(encoding="utf-8"))
        edge_file, label_file = manifest.parent / spec["edge_file"], manifest.parent / spec["label_file"]
        truth = reference_metrics(edge_file, label_file)
        return Dataset(manifest, truth, sum(1 for _ in _rows(label_file)))

    from homsample import graph, graphon

    spec = wl.graph
    w, _ = graphon.two_block_graphon(spec.p_in, spec.p_out)
    g, u = graphon.sample_w_random_graph(w, spec.n, np.random.default_rng([seed, 0]))
    labels = np.minimum((u * 2).astype(np.int64), 1)
    edge_file, label_file, manifest = (work / f"{wl.name}{s}" for s in
                                       ("_edges.txt", "_labels.txt", ".json"))
    edge_file.write_text(graph.dump_edge_list(g), encoding="utf-8")
    label_file.write_text("".join(f"{v} {c}\n" for v, c in enumerate(labels)), encoding="utf-8")
    manifest.write_text(json.dumps({"name": wl.name, "edge_file": edge_file.name,
                                    "label_file": label_file.name, "class_count": 2}),
                        encoding="utf-8")
    try:
        g2, s2, _ = graph.load_dataset(manifest)
    except ValueError as exc:
        raise SetupError(f"{wl.name}: written dataset does not reload: {exc}") from exc
    if g2 != g or not np.array_equal(s2.labels, labels):
        raise SetupError(f"{wl.name}: written dataset reloads to a different graph or labels")
    return Dataset(manifest, reference_metrics(edge_file, label_file), spec.n)


# -- output checks -------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@dataclass
class OpCheck:
    """What one operation's outputs showed: problems found and counts used by metrics."""

    errors: list = field(default_factory=list)
    reps: int = 0
    point: float | None = None    # the estimate of an `estimate` operation


def check_outputs(wl: Workload, ds: Dataset, blobs: list) -> OpCheck:
    """Parse and check one operation's output files (their bytes, in op_args order)."""
    res = OpCheck()
    try:
        if wl.command == "estimate":
            _check_estimate(ds, json.loads(blobs[0]), res)
        else:
            _check_experiment(wl, ds, json.loads(blobs[0]), blobs[1].decode("utf-8"), res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        res.errors.append(f"unreadable output: {exc!r}")
    return res


def _check_estimate(ds: Dataset, rep: dict, res: OpCheck):
    point, var = rep["point"], rep["variance"]
    res.reps = 1
    res.point = point
    if (rep["kind"], rep["mode"]) != ("dirichlet_normalized", "known_denominator"):
        res.errors.append(f"unexpected estimate {rep['kind']}/{rep['mode']}")
    if not math.isfinite(point):
        res.errors.append(f"non-finite point {point}")
    if rep["variance_status"] not in ("exact_design", "negative_clamped") or var is None \
            or not math.isfinite(var) or var < 0:
        res.errors.append(f"bad variance {var} ({rep['variance_status']})")
    expected = round(SRS_FRAC * ds.node_count)
    if rep["sampled_nodes"] != expected:
        res.errors.append(f"sampled {rep['sampled_nodes']} nodes, expected {expected}")


def _check_experiment(wl: Workload, ds: Dataset, record: dict, summary_csv: str, res: OpCheck):
    err = res.errors
    for kind, value in record["ground_truth"].items():
        if not _close(value, ds.truth[kind]):
            err.append(f"ground_truth {kind} {value!r} != reference {ds.truth[kind]!r}")
    if len(record["sweeps"]) != wl.sweeps:
        err.append(f"{len(record['sweeps'])} sweeps, expected {wl.sweeps}")
    n_summaries = 0
    for sweep in record["sweeps"]:
        reps = sweep["replications"]
        res.reps += len(reps)
        if len(reps) != wl.reps:
            err.append(f"{len(reps)} replications, expected {wl.reps}")
        for key, s in sweep["summaries"].items():
            n_summaries += 1
            points = [r["estimates"][key]["point"] for r in reps
                      if "invalid" not in r["estimates"][key]]
            where = f"{key} at {sweep['params']}"
            if s["valid"] + s["invalid"] != wl.reps or s["valid"] != len(points):
                err.append(f"{where}: valid {s['valid']} + invalid {s['invalid']} "
                           f"does not match {len(points)} points of {wl.reps}")
            if not all(math.isfinite(p) for p in points):
                err.append(f"{where}: non-finite point")
            if points and not (math.isfinite(s["mean"]) and math.isfinite(s["std"])):
                err.append(f"{where}: non-finite mean or std")
            if not _close(s["ground_truth"], ds.truth[s["kind"]]):
                err.append(f"{where}: ground_truth {s['ground_truth']!r} off the reference")
            if key in wl.unbiased:
                limit = Z_BOUND * s["std"] / math.sqrt(s["valid"])
                if not abs(s["mean"] - ds.truth[s["kind"]]) <= limit:
                    err.append(f"{where}: mean {s['mean']!r} further than {Z_BOUND} standard "
                               f"errors from {ds.truth[s['kind']]!r}")
    rows = list(csv.DictReader(io.StringIO(summary_csv)))
    if len(rows) != n_summaries:
        err.append(f"summary CSV has {len(rows)} rows, expected {n_summaries}")
    for row in rows:
        if not _close(float(row["ground_truth"]), ds.truth[row["kind"]]):
            err.append(f"summary CSV ground_truth {row['ground_truth']} off the reference")
        if int(row["valid"]) + int(row["invalid"]) != wl.reps:
            err.append(f"summary CSV valid + invalid != {wl.reps}")


def pooled_check(wl: Workload, ds: Dataset, points: list) -> list:
    """Run-level unbiasedness of known-denominator estimates pooled over operations."""
    if wl.command != "estimate":
        return []
    if len(points) < 2:
        return [f"only {len(points)} independent estimates; the pooled check needs 2"]
    truth = ds.truth["dirichlet_normalized"]
    mean, std = float(np.mean(points)), float(np.std(points, ddof=1))
    limit = Z_BOUND * std / math.sqrt(len(points))
    if not abs(mean - truth) <= limit:
        return [f"pooled mean {mean!r} of {len(points)} estimates further than "
                f"{Z_BOUND} standard errors from {truth!r}"]
    return []
