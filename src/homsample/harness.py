"""Seeded Monte Carlo replication engine for sampling experiments.

An experiment fixes a dataset, a design template, metric/mode pairs and a
replication count, optionally sweeping one set of design parameters (e.g.
retention probabilities {0.1, 0.3, 0.5}). Replication r of sweep s runs
on the derived stream (base_seed, 1, s, r), and the empirical inclusion
oracle draws all of sweep s's realizations from the one stream
(base_seed, 2, s), so records are byte-reproducible and any replication
can be rerun alone from its seed: ``draw_sample(g, design, seed)`` on the
sweep's design and that seed, then ``estimate_metric`` with the sweep's
inclusion model, gives the recorded estimates bit for bit; under analytic
inclusion, ``estimate --seed <seed>`` with the sweep's parameters prints
them.
Replications run serially, in order, each on its own stream, in blocks:
as many rows as ``_BLOCK_BYTES`` allows are realized at once by
``draw_block`` and estimated for all metric pairs in one call of
``estimators.estimate_block(block, signal, incl, pairs)``, which gives
every row the point, variance and variance status (or the invalid reason)
``estimate_metric`` gives its sample alone, bit for bit.
Ground truth is computed once on the full graph; summaries report mean,
bias, standard deviation, invalid-replication counts and histogram bins
per sweep value. A
replication whose sample cannot support an estimator (an empty ratio
denominator, or an edge the inclusion model never saw) is recorded as
invalid with the reason, and the experiment goes on; a summary with no
valid replication has mean, bias and std None.
A sweep holds its replications as columns (:class:`SweepResult`): their
seeds and sizes, and under each key ``"kind:mode"`` the
:class:`~homsample.estimators.Estimates` its blocks gave, so memory grows by
a few dozen bytes per replication and metric pair. A record's JSON is the
text ``json.dumps(indent=2, allow_nan=False)`` gives for its dataclass
fields in declaration order, nested records likewise, so a new field is one
line and serializes itself, and a non-finite number is json's ValueError;
but a sweep is written as its ``params``, its ``replications`` and its
``summaries``. Its replications are rows, ``{"rep", "seed",
"sampled_nodes", "sampled_edges", "estimates"}``, each estimate
``{"point", "variance", "variance_status"}`` or ``{"invalid": reason}``:
its replication holds its seed and sizes, and its sweep its design. json's
indented encoder is pure Python, so the rows, the bulk of a record, are
written by ``_replications_json`` from one row template, with the same
bytes; it and :meth:`SweepResult.rows` are the only code that knows the row
layout. :meth:`RunRecord.json_pieces` gives the text piece by piece, as it
is encoded, so a record streams to its file and is never held whole.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import metrics
from .estimators import PLUG_IN, Estimates, check_mode, estimate_block
from .graph import Graph, GraphSignal, load_dataset
from .inclusion import DEFAULT_PI_REPLICATIONS, check_pi_replications, sweep_inclusion
from .rng import DEFAULT_SEED, derive_seeds
from .sampling import SampleBlock, draw_block, resolve_design

# byte budget for the per-row arrays of one block of replications
_BLOCK_BYTES = 1 << 23
# rows of a sweep's columns turned into Python objects at once when its rows are read
_ROW_CHUNK = 1024


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
    pi_replications: int = DEFAULT_PI_REPLICATIONS

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.pi_source == "empirical":
            check_pi_replications(self.pi_replications)
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
    """One sweep value's replications, as columns: replication r has seed
    ``seeds[r]``, ``sampled_nodes[r]`` nodes and ``sampled_edges[r]`` edges,
    and ``estimates[key]`` (:class:`~homsample.estimators.Estimates`) holds
    its estimate under each ``"kind:mode"`` key."""

    params: dict
    seeds: np.ndarray                 # uint64
    sampled_nodes: np.ndarray
    sampled_edges: np.ndarray
    estimates: dict
    summaries: dict = field(default_factory=dict)

    @classmethod
    def allocate(cls, params: dict, keys, replications: int) -> SweepResult:
        """Room for ``replications`` rows of the estimate ``keys``, filled by :meth:`put`."""
        n = replications
        return cls(params, np.zeros(n, np.uint64), np.zeros(n, np.int64), np.zeros(n, np.int64),
                   {key: Estimates(np.zeros(n), np.zeros(n), [None] * n, {}) for key in keys})

    def put(self, start: int, seeds, block: SampleBlock, estimates: dict):
        """Rows ``start`` onward: the replications of ``block``, drawn on
        ``seeds``, and their estimates, as
        :func:`~homsample.estimators.estimate_block` gives them."""
        rows = slice(start, start + block.rows)
        self.seeds[rows] = seeds
        self.sampled_nodes[rows] = block.sampled_nodes
        self.sampled_edges[rows] = block.sampled_edges
        for key, est in estimates.items():
            column = self.estimates[key]
            column.points[rows] = est.points
            column.variances[rows] = est.variances
            column.statuses[rows] = est.statuses
            column.invalid.update((start + row, reason) for row, reason in est.invalid.items())

    def rows(self):
        """Each replication's row of the record, in order, one at a time:
        ``{"rep", "seed", "sampled_nodes", "sampled_edges", "estimates"}``,
        with ``{"point", "variance", "variance_status"}`` or ``{"invalid":
        reason}`` under each key. The columns are read ``_ROW_CHUNK`` rows at
        a time."""
        for start in range(0, len(self.seeds), _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, len(self.seeds))
            entries = {key: est.entries(start, stop) for key, est in self.estimates.items()}
            for i, (seed, nodes, edges) in enumerate(zip(self.seeds[start:stop].tolist(),
                                                         self.sampled_nodes[start:stop].tolist(),
                                                         self.sampled_edges[start:stop].tolist())):
                yield {"rep": start + i, "seed": seed, "sampled_nodes": nodes,
                       "sampled_edges": edges,
                       "estimates": {key: column[i] for key, column in entries.items()}}


@dataclass
class RunRecord:
    dataset: str
    config: ExperimentConfig
    ground_truth: dict
    sweeps: list = field(default_factory=list)

    def to_json(self) -> str:
        """The bytes of ``json.dumps(record, indent=2, allow_nan=False)`` and a
        new line, joined from :meth:`json_pieces`."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of :meth:`to_json`, piece by piece as each is encoded:
        every record's fields in declaration order, nested records likewise,
        but a sweep is its ``params``, its ``replications`` (its rows, written
        by :func:`_replications_json`) and its ``summaries``."""
        head, tail = _split_at({**vars(self), "config": vars(self.config)}, "sweeps", 0)
        yield head
        for k, s in enumerate(self.sweeps):
            yield ",\n    " if k else "[\n    "
            sweep_head, sweep_tail = _split_at(
                {"params": s.params, "replications": [],
                 "summaries": {key: vars(v) for key, v in s.summaries.items()}},
                "replications", 2)
            yield sweep_head
            yield from _replications_json(s, 3)
            yield sweep_tail
        yield ("\n  ]" if self.sweeps else "[]") + tail + "\n"


def _split_at(obj: dict, key: str, depth: int) -> tuple[str, str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)``, written
    ``depth`` levels deep, before and after the value of ``obj[key]``. json
    escapes every new line inside a string, so the line of ``key`` at the
    indent of ``obj``'s own keys occurs once."""
    text = json.dumps({**obj, key: []}, indent=2, allow_nan=False)
    head, slot, tail = text.replace("\n", "\n" + "  " * depth).partition(
        "\n" + "  " * (depth + 1) + encode_basestring_ascii(key) + ": []")
    return head + slot[:-2], tail


def _block_rows(g: Graph) -> int:
    """Replications per block: at once, a row's arrays hold at most 96 bytes
    per node and per edge of ``g`` (masks, edge ids, kernel values, node
    sums and their bincount keys); a census row of the ht path holds about 80."""
    return max(1, _BLOCK_BYTES // (96 * max(1, g.node_count + g.edge_count)))


def _out_of_range(x: float):
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


def _replications_json(sweep: SweepResult, depth: int):
    """The pieces of ``json.dumps(list(sweep.rows()), indent=2, allow_nan=False)``
    written ``depth`` levels deep, one per row. Each row of
    :meth:`SweepResult.rows` is filled into one template, its strings, ints
    and floats written as json writes them."""
    if not len(sweep.seeds):
        yield "[]"
        return
    row_pad, field_pad, key_pad, entry_pad = ("\n" + "  " * (depth + k) for k in range(1, 5))
    string, integer, real = encode_basestring_ascii, int.__repr__, float.__repr__
    finite = math.isfinite
    sep = "["
    for r in sweep.rows():
        entries = []
        for key, e in r["estimates"].items():
            if "invalid" in e:
                entries.append(f'{key_pad}{string(key)}: {{{entry_pad}"invalid": '
                               f'{string(e["invalid"])}{key_pad}}}')
            else:
                p, v = e["point"], e["variance"]
                entries.append(
                    f'{key_pad}{string(key)}: {{'
                    f'{entry_pad}"point": {real(p) if finite(p) else _out_of_range(p)},'
                    f'{entry_pad}"variance": '
                    f'{"null" if v is None else real(v) if finite(v) else _out_of_range(v)},'
                    f'{entry_pad}"variance_status": {string(e["variance_status"])}{key_pad}}}')
        estimates = ",".join(entries) + field_pad if entries else ""
        yield (f'{sep}{row_pad}{{'
               f'{field_pad}"rep": {integer(r["rep"])},'
               f'{field_pad}"seed": {integer(r["seed"])},'
               f'{field_pad}"sampled_nodes": {integer(r["sampled_nodes"])},'
               f'{field_pad}"sampled_edges": {integer(r["sampled_edges"])},'
               f'{field_pad}"estimates": {{{estimates}}}{row_pad}}}')
        sep = ","
    yield "\n" + "  " * depth + "]"


def run_experiment(cfg: ExperimentConfig,
                   dataset: tuple[Graph, GraphSignal] | None = None) -> RunRecord:
    """Run all replications of an experiment and aggregate summaries.

    ``dataset`` may pass a preloaded (graph, signal) pair; otherwise
    ``cfg.dataset`` is treated as a manifest path. Replications run
    serially, in order, a block of ``_block_rows`` at a time; a block's
    seeds are derived at once, when the block runs.
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

        sweep = SweepResult.allocate(dict(overrides or vars(design)),
                                     [f"{kind}:{mode}" for kind, mode in cfg.metrics],
                                     cfg.replications)
        for start in range(0, cfg.replications, rows):
            reps = range(start, min(start + rows, cfg.replications))
            seeds = derive_seeds(cfg.base_seed, 1, sweep_idx, reps)
            block = draw_block(g, design, seeds.tolist())
            sweep.put(start, seeds, block, estimate_block(block, signal, incl, cfg.metrics))

        for kind, mode in cfg.metrics:
            key = f"{kind}:{mode}"
            est = sweep.estimates[key]
            valid = np.ones(cfg.replications, dtype=bool)
            valid[list(est.invalid)] = False
            points = est.points[valid]
            invalid = cfg.replications - len(points)
            if len(points):
                edges, counts = histogram(points, cfg.bins)
                mean = float(np.mean(points))
                bias = mean - ground_truth[kind]
                std = float(np.std(points, ddof=1)) if len(points) > 1 else 0.0
            else:
                edges, counts, mean, bias, std = [], [], None, None, None
            sweep.summaries[key] = SummaryStats(
                kind=kind, mode=mode, ground_truth=ground_truth[kind],
                mean=mean, bias=bias, std=std, valid=len(points), invalid=invalid,
                histogram={"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]},
            )
        record.sweeps.append(sweep)
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
    """Per-replication estimates: (dataset, kind, mode, design, param, seed, point, variance,
    status)."""
    writer = csv.writer(stream)
    writer.writerow(["dataset", "kind", "mode", "design", "param", "seed",
                     "point", "variance", "status"])
    design_kind = record.config.design.get("kind")
    for sweep in record.sweeps:
        param = json.dumps(sweep.params, sort_keys=True)
        for rep in sweep.rows():
            for key in sorted(rep["estimates"]):
                est = rep["estimates"][key]
                cells = (["", "", "invalid"] if "invalid" in est else
                         [repr(est["point"]), "" if est["variance"] is None else repr(est["variance"]),
                          est["variance_status"]])
                writer.writerow([record.dataset, *key.split(":"), design_kind, param, rep["seed"],
                                 *cells])
