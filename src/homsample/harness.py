"""Seeded Monte Carlo replication engine for sampling experiments.

An experiment fixes a dataset, a design template, metric/mode pairs and a
replication count, optionally sweeping one set of design parameters (e.g.
retention probabilities {0.1, 0.3, 0.5}). Replication r of sweep s runs
on the derived stream (base_seed, 1, s, r), and the empirical inclusion
oracle draws all of sweep s's realizations from the one stream
(base_seed, 2, s), so records are byte-reproducible and any replication
can be rerun alone from its seed: ``draw_sample`` on the sweep's design
with that seed, then ``estimate_metric`` with the sweep's inclusion model,
gives the recorded estimates bit for bit.
Replications run serially, in order, each on its own stream, in blocks:
as many rows as ``_BLOCK_BYTES`` allows are realized at once by
``draw_block`` and estimated at once by
:meth:`~homsample.estimators.SweepColumns.estimate_block`, which each
sweep value builds once, and which gives every row the estimates (or the
invalid reason) ``estimate_metric`` gives its sample alone, bit for bit.
Ground truth is computed once on the full graph; summaries report mean,
bias, standard deviation, invalid-replication counts and histogram bins
per sweep value. A
replication whose sample cannot support an estimator (an empty ratio
denominator, or an edge the inclusion model never saw) is recorded as
invalid with the reason, and the experiment goes on; a summary with no
valid replication has mean, bias and std None. A record's JSON is its
dataclass fields in declaration order, nested records likewise, so a new
field is one line and serializes itself; :mod:`homsample.jsonout` writes
it with the bytes of ``json.dumps(indent=2)`` in a fraction of its time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .estimators import PLUG_IN, DegenerateSampleError, SweepColumns, check_mode
from .graph import Graph, GraphSignal, load_dataset
from .inclusion import inclusion_for
from .jsonout import dumps_indented
from .rng import DEFAULT_SEED, derive_seed
from .sampling import design_from_dict, design_params, draw_block, with_seed

# byte budget for the per-row arrays of one block of replications
_BLOCK_BYTES = 1 << 23


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
        if not self.metrics:
            raise ValueError("metrics must name at least one (kind, mode) pair")
        seen = set()
        for kind, mode in self.metrics:
            check_mode(kind, mode)
            if (kind, mode) in seen:
                raise ValueError(f"metric pair {kind}:{mode} is listed more than once")
            seen.add((kind, mode))
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


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
    mean: float | None                # None when no replication is valid
    bias: float | None
    std: float | None
    valid: int
    invalid: int
    histogram: dict                   # {"edges": [...], "counts": [...]}


@dataclass
class SweepResult:
    params: dict
    replications: list
    summaries: dict


@dataclass
class RunRecord:
    dataset: str
    config: ExperimentConfig
    ground_truth: dict
    sweeps: list = field(default_factory=list)

    def to_json(self) -> str:
        """Every record's fields in declaration order; a non-finite number is an error."""
        d = {**vars(self), "config": vars(self.config),
             "sweeps": [{**vars(s), "summaries": {k: vars(v) for k, v in s.summaries.items()}}
                        for s in self.sweeps]}
        return dumps_indented(d) + "\n"


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

    The empirical oracle draws all its realizations from the auxiliary
    stream ``(base_seed, 2, sweep_idx)``; on the design's own seed it would
    replay the very sample it weights as its first replication. Analytic
    models do not depend on the seed.
    """
    oracle = with_seed(design, derive_seed(base_seed, 2, sweep_idx))
    return inclusion_for(g, oracle, source=source, replications=replications)


def _block_rows(g: Graph) -> int:
    """Replications per block: at once, a row's arrays hold at most 96 bytes
    per node and per edge of ``g`` (masks, edge ids, gathered columns, node
    sums and their bincount keys); a census row of the ht path holds about 80."""
    return max(1, _BLOCK_BYTES // (96 * (g.node_count + g.edge_count)))


def _replicate_block(g, design, columns, metric_pairs, first_rep, seeds) -> list[dict]:
    """The replications of ``seeds``, numbered from ``first_rep``: one block
    realization, then one block estimate per metric pair."""
    block = draw_block(g, design, seeds)
    results = {f"{kind}:{mode}": columns.estimate_block(block, kind, mode)
               for kind, mode in metric_pairs}
    reps = []
    for row, (seed, nodes, edges) in enumerate(zip(seeds, block.sampled_nodes.tolist(),
                                                   block.sampled_edges.tolist())):
        estimates = {}
        for key, reports in results.items():
            report = reports[row]
            estimates[key] = ({"invalid": str(report)}
                              if isinstance(report, DegenerateSampleError) else vars(report))
        reps.append({"rep": first_rep + row, "seed": seed, "sampled_nodes": nodes,
                     "sampled_edges": edges, "estimates": estimates})
    return reps


def run_experiment(cfg: ExperimentConfig,
                   dataset: tuple[Graph, GraphSignal] | None = None) -> RunRecord:
    """Run all replications of an experiment and aggregate summaries.

    ``dataset`` may pass a preloaded (graph, signal) pair; otherwise
    ``cfg.dataset`` is treated as a manifest path. Replications run
    serially, in order, a block of ``_block_rows`` at a time.
    """
    if dataset is not None:
        g, signal = dataset
        name = cfg.dataset
    else:
        g, signal, name = load_dataset(cfg.dataset)

    needed_kinds = sorted({kind for kind, _ in cfg.metrics})
    ground_truth = {kind: metrics.exact_metric(g, signal, kind) for kind in needed_kinds}

    record = RunRecord(dataset=name, config=cfg, ground_truth=ground_truth)
    sweep_list = cfg.sweep if cfg.sweep else ({},)
    # plug-in estimates never read pi
    needs_pi = any(mode != PLUG_IN for _, mode in cfg.metrics)
    rows = _block_rows(g)

    for sweep_idx, overrides in enumerate(sweep_list):
        design = resolve_design(cfg.design, overrides, g.node_count)
        incl = sweep_inclusion(g, design, cfg.base_seed, sweep_idx,
                               cfg.pi_source, cfg.pi_replications) if needs_pi else None

        columns = SweepColumns(g, signal, incl)
        seeds = [derive_seed(cfg.base_seed, 1, sweep_idx, r) for r in range(cfg.replications)]
        reps = []
        for start in range(0, len(seeds), rows):
            reps += _replicate_block(g, design, columns, cfg.metrics, start,
                                     seeds[start:start + rows])

        summaries = {}
        for kind, mode in cfg.metrics:
            key = f"{kind}:{mode}"
            points = [r["estimates"][key]["point"] for r in reps
                      if "invalid" not in r["estimates"][key]]
            invalid = cfg.replications - len(points)
            if points:
                edges, counts = histogram(points, cfg.bins)
                mean = float(np.mean(points))
                bias = mean - ground_truth[kind]
                std = float(np.std(points, ddof=1)) if len(points) > 1 else 0.0
            else:
                edges, counts, mean, bias, std = [], [], None, None, None
            summaries[key] = SummaryStats(
                kind=kind, mode=mode, ground_truth=ground_truth[kind],
                mean=mean, bias=bias, std=std, valid=len(points), invalid=invalid,
                histogram={"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]},
            )
        record.sweeps.append(SweepResult(
            params=dict(overrides) if overrides else design_params(design),
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
                "design": record.config.design.get("kind"),
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
            edges = s.histogram["edges"]
            for k, count in enumerate(s.histogram["counts"]):
                writer.writerow([record.dataset, s.kind, s.mode, param,
                                 repr(edges[k]), repr(edges[k + 1]), count])


def write_estimates_csv(record: RunRecord, stream):
    """Per-replication estimates: (dataset, kind, design, param, seed, point, variance, status)."""
    writer = csv.writer(stream)
    writer.writerow(["dataset", "kind", "mode", "design", "param", "seed",
                     "point", "variance", "status"])
    design_kind = record.config.design.get("kind")
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
