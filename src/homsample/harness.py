"""Seeded Monte Carlo replication engine for sampling experiments.

An experiment fixes a dataset, a design template, metric/mode pairs and a
replication count, optionally sweeping one set of design parameters (e.g.
retention probabilities {0.1, 0.3, 0.5}). Replication r of sweep s runs
on the derived stream (base_seed, 1, s, r) and auxiliary draws (the
empirical inclusion oracle) on (base_seed, 2, s), so records are byte-
reproducible and any replication can be rerun alone from its seed.
Replications run serially, in order. Ground truth is computed once on the
full graph; summaries report mean, bias, standard deviation,
invalid-replication counts and histogram bins per sweep value. A
replication whose sample cannot support an estimator (an empty ratio
denominator, or an edge the inclusion model never saw) is recorded as
invalid with the reason, and the experiment goes on.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .estimators import DegenerateSampleError, check_mode, estimate_metric
from .graph import Graph, GraphSignal, load_dataset
from .inclusion import inclusion_for
from .rng import DEFAULT_SEED, derive_seed
from .sampling import design_from_dict, draw_sample, with_seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte."""

    dataset: str
    design: dict                      # template incl. kind, e.g. {"kind": "srs", "n_star": 10}
    metrics: tuple                    # ((kind, mode), ...)
    replications: int
    base_seed: int = DEFAULT_SEED
    sweep: tuple = ()                 # per-sweep parameter overrides, e.g. ({"p": 0.1}, ...)
    bins: int = 20
    pi_source: str = "analytic"       # "analytic" | "empirical"
    pi_replications: int = 100_000

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for kind, mode in self.metrics:
            check_mode(kind, mode)
        if self.bins < 1:
            raise ValueError("bins must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "design": self.design,
            "metrics": [list(m) for m in self.metrics],
            "replications": self.replications,
            "base_seed": self.base_seed,
            "sweep": [dict(s) for s in self.sweep],
            "bins": self.bins,
            "pi_source": self.pi_source,
            "pi_replications": self.pi_replications,
        }


def histogram(points, bins: int):
    """Equal-width bins spanning [min, max]; a degenerate range gives one bin."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("empty input")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(pts.min()), float(pts.max())
    if lo == hi:
        return np.array([lo, hi]), np.array([pts.size])
    counts, edges = np.histogram(pts, bins=bins, range=(lo, hi))
    return edges, counts


@dataclass
class SummaryStats:
    kind: str
    mode: str
    ground_truth: float
    mean: float
    bias: float
    std: float
    valid: int
    invalid: int
    hist_edges: list
    hist_counts: list

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind, "mode": self.mode,
            "ground_truth": self.ground_truth, "mean": self.mean,
            "bias": self.bias, "std": self.std,
            "valid": self.valid, "invalid": self.invalid,
            "histogram": {"edges": self.hist_edges, "counts": self.hist_counts},
        }


@dataclass
class SweepResult:
    params: dict
    replications: list
    summaries: dict

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "replications": self.replications,
            "summaries": {k: s.to_json_dict() for k, s in self.summaries.items()},
        }


@dataclass
class RunRecord:
    dataset: str
    config: dict
    ground_truth: dict
    sweeps: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "config": self.config,
            "ground_truth": self.ground_truth,
            "sweeps": [s.to_json_dict() for s in self.sweeps],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def resolve_design(template: dict, overrides: dict, n: int):
    """Design from a template dict plus overrides; an SRS "frac" in (0, 1]
    becomes ``n_star = max(1, round(frac * n))`` unless n_star is given."""
    merged = {**template, **overrides}
    frac = merged.pop("frac", None)
    if frac is not None and "n_star" not in merged:
        frac = float(frac)
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"SRS frac must be in (0, 1], got {frac!r}")
        merged["n_star"] = max(1, round(frac * n))
    return design_from_dict(merged)


def sweep_inclusion(g: Graph, design, base_seed: int, sweep_idx: int,
                    source: str, replications: int):
    """Inclusion model for sweep value ``sweep_idx`` of an experiment.

    The empirical oracle runs on the auxiliary stream
    ``(base_seed, 2, sweep_idx)``; on the design's own seed it would
    replay the very sample it weights as its first replication. Analytic
    models do not depend on the seed.
    """
    oracle = with_seed(design, derive_seed(base_seed, 2, sweep_idx))
    return inclusion_for(g, oracle, source=source, replications=replications)


def _replicate(g, signal, design, incl, metric_pairs, rep, seed):
    sample = draw_sample(g, with_seed(design, seed))
    estimates = {}
    for kind, mode in metric_pairs:
        key = f"{kind}:{mode}"
        try:
            report = estimate_metric(sample, signal, kind, mode, incl=incl)
            estimates[key] = report.to_json_dict()
        except DegenerateSampleError as exc:
            estimates[key] = {"invalid": str(exc)}
    return {"rep": rep, "seed": seed, "sampled_nodes": sample.node_count,
            "sampled_edges": sample.edge_count, "estimates": estimates}


def run_experiment(cfg: ExperimentConfig,
                   dataset: tuple[Graph, GraphSignal] | None = None) -> RunRecord:
    """Run all replications of an experiment and aggregate summaries.

    ``dataset`` may pass a preloaded (graph, signal) pair; otherwise
    ``cfg.dataset`` is treated as a manifest path. Replications run
    serially, in order.
    """
    if dataset is not None:
        g, signal = dataset
        name = cfg.dataset
    else:
        g, signal, name = load_dataset(cfg.dataset)

    needed_kinds = sorted({kind for kind, _ in cfg.metrics})
    ground_truth = {kind: metrics.exact_metric(g, signal, kind) for kind in needed_kinds}

    record = RunRecord(dataset=name, config=cfg.to_json_dict(), ground_truth=ground_truth)
    sweep_list = cfg.sweep if cfg.sweep else ({},)

    for sweep_idx, overrides in enumerate(sweep_list):
        design = resolve_design(cfg.design, overrides, g.node_count)
        incl = sweep_inclusion(g, design, cfg.base_seed, sweep_idx,
                               cfg.pi_source, cfg.pi_replications)

        reps = [_replicate(g, signal, design, incl, cfg.metrics, r,
                           derive_seed(cfg.base_seed, 1, sweep_idx, r))
                for r in range(cfg.replications)]

        summaries = {}
        for kind, mode in cfg.metrics:
            key = f"{kind}:{mode}"
            points = [r["estimates"][key]["point"] for r in reps
                      if "invalid" not in r["estimates"][key]]
            invalid = cfg.replications - len(points)
            if points:
                edges, counts = histogram(points, cfg.bins)
                mean = float(np.mean(points))
                std = float(np.std(points, ddof=1)) if len(points) > 1 else 0.0
            else:
                edges, counts, mean, std = np.array([]), np.array([]), float("nan"), float("nan")
            summaries[key] = SummaryStats(
                kind=kind, mode=mode, ground_truth=ground_truth[kind],
                mean=mean, bias=mean - ground_truth[kind], std=std,
                valid=len(points), invalid=invalid,
                hist_edges=[float(e) for e in edges],
                hist_counts=[int(c) for c in counts],
            )
        record.sweeps.append(SweepResult(
            params=dict(overrides) if overrides else dict(design.params()),
            replications=reps, summaries=summaries))
    return record


def summarize(record: RunRecord) -> list[dict]:
    """Flatten a run record into one row per (sweep value, metric, mode)."""
    if not record.sweeps:
        raise ValueError("empty input")
    rows = []
    for sweep in record.sweeps:
        for key in sorted(sweep.summaries):
            s = sweep.summaries[key]
            rows.append({
                "dataset": record.dataset,
                "kind": s.kind,
                "mode": s.mode,
                "design": record.config["design"].get("kind"),
                "param": json.dumps(sweep.params, sort_keys=True),
                "ground_truth": s.ground_truth,
                "mean": s.mean,
                "bias": s.bias,
                "std": s.std,
                "valid": s.valid,
                "invalid": s.invalid,
            })
    return rows


def write_summary_csv(record: RunRecord, stream):
    rows = summarize(record)
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def write_histogram_csv(record: RunRecord, stream):
    writer = csv.writer(stream)
    writer.writerow(["dataset", "kind", "mode", "param", "bin_left", "bin_right", "count"])
    for sweep in record.sweeps:
        param = json.dumps(sweep.params, sort_keys=True)
        for key in sorted(sweep.summaries):
            s = sweep.summaries[key]
            for k, count in enumerate(s.hist_counts):
                writer.writerow([record.dataset, s.kind, s.mode, param,
                                 repr(s.hist_edges[k]), repr(s.hist_edges[k + 1]), count])


def write_estimates_csv(record: RunRecord, stream):
    """Per-replication estimates: (dataset, kind, design, param, seed, point, variance, status)."""
    writer = csv.writer(stream)
    writer.writerow(["dataset", "kind", "mode", "design", "param", "seed",
                     "point", "variance", "status"])
    design_kind = record.config["design"].get("kind")
    for sweep in record.sweeps:
        param = json.dumps(sweep.params, sort_keys=True)
        for rep in sweep.replications:
            for key in sorted(rep["estimates"]):
                est = rep["estimates"][key]
                kind, mode = key.split(":")
                if "invalid" in est:
                    writer.writerow([record.dataset, kind, mode, design_kind, param,
                                     rep["seed"], "", "", "invalid"])
                else:
                    writer.writerow([record.dataset, kind, mode, design_kind, param,
                                     rep["seed"], repr(est["point"]),
                                     repr(est["variance"]) if est["variance"] is not None else "",
                                     est["variance_status"]])
