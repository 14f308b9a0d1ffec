"""Command-line interface.

Subcommands: info, homophily, sample, estimate, experiment, graphon.
Machine-readable results are always JSON/CSV written to paths given by
flags (or stdout); human-readable tables go to standard output only. The
seed defaults to a fixed constant so repeated invocations are
byte-identical unless --seed is given. ``experiment`` and ``graphon``
import the harness and the graphon module when they run, so the other
commands start without them.
"""

from __future__ import annotations

import argparse
import errno
import io
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .estimators import MODES_FOR_KIND, PLUG_IN, check_mode, estimate_metric
from .graph import load_dataset, load_edge_list, load_labelled
from .inclusion import DEFAULT_PI_REPLICATIONS, check_pi_replications, sweep_inclusion
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    METRIC_KINDS,
    NODE_HOMOPHILY,
    checked_total_weight,
    exact_metric,
    homophily_profile,
)
from .rng import DEFAULT_SEED
from .sampling import check_fractions, design_to_dict, draw_sample, resolve_design

# the short names, and each kind by its own name
METRIC_ALIASES = {"dirichlet": DIRICHLET_NORMALIZED, "edge": EDGE_HOMOPHILY,
                  "node": NODE_HOMOPHILY, **{kind: kind for kind in METRIC_KINDS}}
TABLE_METRICS = (DIRICHLET_NORMALIZED, EDGE_HOMOPHILY, NODE_HOMOPHILY)


def _metric_pair(name: str, mode: str | None) -> tuple[str, str]:
    """``(kind, mode)`` of metric ``name``, with the kind's default mode if
    ``mode`` is None; an unknown metric, or a mode its kind lacks, is an error."""
    try:
        kind = METRIC_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r} "
                         f"(choices: {', '.join(sorted(METRIC_ALIASES))})") from None
    mode = mode or MODES_FOR_KIND[kind][0]
    check_mode(kind, mode)
    return kind, mode


def _seed(text: str) -> int:
    """A --seed value; numpy seeds a stream from a non-negative integer only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_dataset_flags(p):
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--edges", help="edge-list file (alternative to --manifest)")
    p.add_argument("--labels", help="label file")
    p.add_argument("--classes", type=int, help="class count for --labels")


def _load_from_flags(args, need_labels=True):
    if args.manifest:
        given = [_flag_name(n) for n in _DATASET_FLAGS[1:] if getattr(args, n) is not None]
        if given:
            raise ValueError(f"{given[0]} and --manifest both name the dataset; give one")
        return load_dataset(args.manifest)
    if not args.edges:
        raise ValueError("provide --manifest or --edges")
    if (args.labels is None) != (args.classes is None):
        raise ValueError("--classes requires --labels" if args.labels is None
                         else "--labels requires --classes")
    if args.labels is None:
        g, s = load_edge_list(args.edges), None
    else:
        g, s = load_labelled(args.edges, args.labels, args.classes)
    if need_labels and s is None:
        raise ValueError("this command needs labels (--manifest or --labels/--classes)")
    return g, s, args.edges


def _add_design_flags(p):
    p.add_argument("--design", choices=["bernoulli", "srs", "traceroute"], required=True)
    p.add_argument("--p", help="Bernoulli retention probability (comma list sweeps)")
    p.add_argument("--frac", help="SRS node fraction (comma list sweeps)")
    p.add_argument("--n-star", help="SRS sample size (comma list sweeps)")
    p.add_argument("--sources", help="traceroute source count (comma list sweeps)")
    p.add_argument("--targets", help="traceroute target count (comma list sweeps)")


def _add_pi_flags(p):
    p.add_argument("--pi", choices=["analytic", "empirical"], default="analytic",
                   help="inclusion probabilities: closed forms, or under traceroute the "
                        "betweenness approximation, which runs one BFS per node (minutes at "
                        "n = 200k); or the Monte Carlo oracle (default analytic)")
    p.add_argument("--pi-reps", type=int,
                   help="replications of the empirical inclusion oracle, with --pi empirical "
                        f"only (default {DEFAULT_PI_REPLICATIONS})")


def _pi_replications(args, reads_pi: bool = True) -> int:
    """The oracle's replication count; --pi-reps is an error under --pi analytic,
    which runs no oracle, and --pi empirical one where no mode ``reads_pi``."""
    if args.pi_reps is not None and args.pi != "empirical":
        raise ValueError(f"--pi-reps belongs to --pi empirical, not to --pi {args.pi}")
    if args.pi == "empirical" and not reads_pi:
        raise ValueError("--pi empirical belongs to a mode that reads pi, not to plug_in")
    return check_pi_replications(DEFAULT_PI_REPLICATIONS if args.pi_reps is None
                                 else args.pi_reps)


# each design's parameter flags, by their argparse names
_DESIGN_FLAGS = {"bernoulli": ("p",), "srs": ("frac", "n_star"),
                 "traceroute": ("sources", "targets")}


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


def _values(args, name: str, cast) -> list:
    """The comma list of flag ``name``, each value cast; a list with no
    value, or a value that does not cast, is an error that names the flag."""
    values = []
    for x in filter(None, getattr(args, name).split(",")):
        try:
            values.append(cast(x))
        except ValueError:
            raise ValueError(f"{_flag_name(name)}: invalid {cast.__name__} value {x!r}") from None
    if not values:
        raise ValueError(f"{_flag_name(name)} lists no value")
    return values


def _design_values(args):
    """Per-sweep design parameter dicts as given by the flags; a flag of
    another design, or both SRS sizes, is an error that names the flag, and
    a fraction that no graph admits is refused (``check_fractions``)."""
    for design, names in _DESIGN_FLAGS.items():
        for name in names:
            if design != args.design and getattr(args, name) is not None:
                raise ValueError(f"{_flag_name(name)} belongs to the {design} design, "
                                 f"not to {args.design}")
    if args.design == "bernoulli":
        if not args.p:
            raise ValueError("bernoulli design requires --p")
        values = [{"p": p} for p in _values(args, "p", float)]
    elif args.design == "srs":
        if args.n_star is not None and args.frac is not None:
            raise ValueError("--n-star and --frac both set the SRS sample size; give one")
        if args.n_star:
            values = [{"n_star": v} for v in _values(args, "n_star", int)]
        elif args.frac:
            values = [{"frac": f} for f in _values(args, "frac", float)]
        else:
            raise ValueError("srs design requires --frac or --n-star")
    else:
        if not (args.sources and args.targets):
            raise ValueError("traceroute design requires --sources and --targets")
        src, tgt = _values(args, "sources", int), _values(args, "targets", int)
        if len(src) != len(tgt):
            raise ValueError("--sources and --targets must have the same length")
        values = [{"n_sources": s, "n_targets": t} for s, t in zip(src, tgt)]
    for value in values:
        check_fractions(value)
    return values


def _single_design_value(args) -> dict:
    values = _design_values(args)
    if len(values) != 1:
        raise ValueError("this command takes exactly one design parameter value")
    return values[0]


def _write_pieces(pieces, out_path):
    """Write the text ``pieces`` to ``out_path`` as they are made, into a
    temporary file beside it that replaces ``out_path`` once the last piece
    is written: an error on the way, such as a refused value, leaves no file."""
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
        # the output's directory is at fault: name the output, not the file beside it
        raise type(exc)(exc.errno, exc.strerror, out_path) from None
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, out_path)
    except BaseException:
        os.remove(tmp)
        raise


def _emit_json(obj, out_path):
    # the indented encoder's chunks are written as they come; json.dumps
    # would hold them all in a list before joining
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(obj)
    if out_path:
        _write_pieces(itertools.chain(chunks, ["\n"]), out_path)
        return
    # stdout cannot take back what it printed, so encoding ends first
    buf = io.StringIO()
    buf.writelines(chunks)
    buf.write("\n")
    sys.stdout.write(buf.getvalue())


def _cmd_info(args):
    g, s, name = _load_from_flags(args, need_labels=False)
    info = {
        "name": name,
        "nodes": g.node_count,
        "edges": g.edge_count,
        "total_edge_weight": checked_total_weight(g, "total_edge_weight"),
    }
    if s is not None:
        info["classes"] = s.dim
        # up to the largest label present: K may be far more than the nodes
        info["class_counts"] = np.bincount(s.labels).tolist()
    print(f"{name}: n={info['nodes']} edges={info['edges']} "
          f"total_weight={info['total_edge_weight']:g}"
          + (f" classes={info['classes']}" if "classes" in info else ""))
    if args.out:
        _emit_json(info, args.out)
    return 0


def _cmd_homophily(args):
    g, s, name = _load_from_flags(args)
    profile = homophily_profile(g, s)
    for kind, value in profile.items():
        print(f"{name} {kind}: {value:.4f}")
    if args.out:
        _emit_json({"dataset": name, **profile}, args.out)
    return 0


def _cmd_sample(args):
    pi_reps = _pi_replications(args)
    value = _single_design_value(args)
    g, s, name = _load_from_flags(args, need_labels=False)
    design = resolve_design({"kind": args.design}, value, g.node_count)
    sample = draw_sample(g, design, args.seed)
    incl = sweep_inclusion(g, design, args.seed, 0, args.pi, pi_reps)
    _emit_json({"design": design_to_dict(design, args.seed), "seed": args.seed,
                **sample.to_json_dict(incl)}, args.out)
    return 0


def _cmd_estimate(args):
    kind, mode = _metric_pair(args.metric, args.mode)
    pi_reps = _pi_replications(args, reads_pi=mode != PLUG_IN)
    value = _single_design_value(args)
    g, s, name = _load_from_flags(args)
    design = resolve_design({"kind": args.design}, value, g.node_count)
    sample = draw_sample(g, design, args.seed)
    # plug-in estimates never read pi
    incl = None if mode == PLUG_IN else sweep_inclusion(g, design, args.seed, 0, args.pi, pi_reps)
    report = estimate_metric(sample, s, kind, mode, incl=incl)
    _emit_json({"dataset": name, **vars(report), "design": design_to_dict(design, args.seed),
                "seed": args.seed}, args.out)
    return 0


def _cmd_experiment(args):
    from .harness import (ExperimentConfig, run_experiment, summarize, write_estimates_csv,
                          write_histogram_csv, write_summary_csv)

    names = TABLE_METRICS if args.metric == "all" else args.metric.split(",")
    pairs = tuple(_metric_pair(m, args.mode) for m in names)
    pi_reps = _pi_replications(args, reads_pi=any(mode != PLUG_IN for _, mode in pairs))
    # the config refuses its own flags before the dataset loads; the sweep needs its node count
    cfg = ExperimentConfig(
        dataset="",
        design={"kind": args.design},
        metrics=pairs,
        replications=args.reps,
        base_seed=args.seed,
        bins=args.bins,
        pi_source=args.pi,
        pi_replications=pi_reps,
    )
    values = _design_values(args)
    g, s, name = _load_from_flags(args)
    sweep = [dict(vars(resolve_design({"kind": args.design}, v, g.node_count))) for v in values]
    record = run_experiment(replace(cfg, dataset=name, sweep=tuple(sweep)), dataset=(g, s))
    for row in summarize(record):
        mean, bias, std = (np.nan if row[c] is None else row[c] for c in ("mean", "bias", "std"))
        print(f"{row['dataset']} {row['kind']}[{row['mode']}] {row['param']}: "
              f"gt={row['ground_truth']:.4f} mean={mean:.4f} "
              f"bias={bias:+.4f} std={std:.4f} invalid={row['invalid']}")
    if args.out:
        _write_pieces(record.json_pieces(), args.out)
    if args.summary_csv:
        with open(args.summary_csv, "w", newline="", encoding="utf-8") as fh:
            write_summary_csv(record, fh)
    if args.hist_csv:
        with open(args.hist_csv, "w", newline="", encoding="utf-8") as fh:
            write_histogram_csv(record, fh)
    if args.estimates_csv:
        with open(args.estimates_csv, "w", newline="", encoding="utf-8") as fh:
            write_estimates_csv(record, fh)
    return 0


# the convergence study's flags and their defaults; the identity check reads a dataset
_STUDY_DEFAULTS = {"p_in": 0.5, "p_out": 0.2, "sizes": "50,100,200,400", "reps": 20,
                   "seed": DEFAULT_SEED, "csv": None}
_DATASET_FLAGS = ("manifest", "edges", "labels", "classes")   # a manifest names the other three


def _cmd_graphon(args):
    """The identity check on a dataset, or the convergence study; a flag of
    the other one is an error that names the flag."""
    from .graphon import convergence_experiment, phi_step, two_block_graphon

    mode, other, flags = (("--check-identity", "the convergence study", _STUDY_DEFAULTS)
                          if args.check_identity else
                          ("the convergence study", "--check-identity", _DATASET_FLAGS))
    for name in flags:
        if getattr(args, name) is not None:
            raise ValueError(f"{_flag_name(name)} belongs to {other}, not to {mode}")
    if args.check_identity:
        g, s, name = _load_from_flags(args)
        tv = exact_metric(g, s, DIRICHLET_TOTAL)
        phi = phi_step(g, s)
        scaled = phi * g.node_count ** 2
        residual = abs(scaled - tv) / max(abs(tv), 1.0)
        print(f"{name}: tv={tv:g} phi*n^2={scaled:g} relative_residual={residual:.3e}")
        _emit_json({"dataset": name, "tv": tv, "phi": phi,
                    "phi_times_n_squared": scaled, "relative_residual": residual}, args.out)
        return 0 if residual < 1e-9 else 1
    for name, default in _STUDY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    # convergence study on a two-block graphon
    w, sig = two_block_graphon(args.p_in, args.p_out)
    result = convergence_experiment(w, sig, _values(args, "sizes", int), args.reps, args.seed)
    for row in result["series"]:
        print(f"n={row['n']}: mean={row['mean']:.4f} deviation={row['deviation']:.4f} "
              f"(phi={result['phi']:.4f})")
    if args.out:
        _emit_json(result, args.out)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            fh.write("n,mean,deviation\n")
            for row in result["series"]:
                fh.write(f"{row['n']},{row['mean']!r},{row['deviation']!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsample",
        description="Homophily metrics and Horvitz-Thompson estimation from sampled graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dataset statistics")
    _add_dataset_flags(p)
    p.add_argument("--out", help="write stats JSON here")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("homophily", help="exact full-graph homophily metrics")
    _add_dataset_flags(p)
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=_cmd_homophily)

    p = sub.add_parser("sample", help="draw one sampled subgraph")
    _add_dataset_flags(p)
    _add_design_flags(p)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_pi_flags(p)
    p.add_argument("--out", help="write SampledGraph JSON here (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate one metric from one sample")
    _add_dataset_flags(p)
    _add_design_flags(p)
    p.add_argument("--metric", default="dirichlet",
                   help="dirichlet|dirichlet_total|edge|node (full names accepted)")
    p.add_argument("--mode", default=None,
                   help="ht_total|plug_in|hajek_ratio|known_denominator (default: per metric)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_pi_flags(p)
    p.add_argument("--out", help="write EstimateReport JSON here (default stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="Monte Carlo replication experiment")
    _add_dataset_flags(p)
    _add_design_flags(p)
    p.add_argument("--metric", default="all",
                   help="comma list of metrics, or 'all' for the three normalized ones")
    p.add_argument("--mode", default=None,
                   help="estimation mode for every metric (default: per-metric default)")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--bins", type=int, default=20)
    _add_pi_flags(p)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; replications run serially")
    p.add_argument("--out", help="RunRecord JSON path")
    p.add_argument("--summary-csv")
    p.add_argument("--hist-csv")
    p.add_argument("--estimates-csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("graphon", help="graphon identity check or convergence study")
    _add_dataset_flags(p)
    p.add_argument("--check-identity", action="store_true",
                   help="verify phi*n^2 equals the Dirichlet energy on a dataset")
    study = {name: f" (default {value})" for name, value in _STUDY_DEFAULTS.items()}
    p.add_argument("--p-in", type=float, help="within-block edge probability" + study["p_in"])
    p.add_argument("--p-out", type=float, help="between-block edge probability" + study["p_out"])
    p.add_argument("--sizes", help="comma list of graph sizes" + study["sizes"])
    p.add_argument("--reps", type=int, help="W-random graphs per size" + study["reps"])
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", help="JSON output path")
    p.add_argument("--csv", help="convergence series CSV path")
    p.set_defaults(func=_cmd_graphon)

    return parser


# the flags that name an output file
_OUT_FLAGS = ("out", "summary_csv", "hist_csv", "estimates_csv", "csv")


def _check_out_dirs(args):
    """Refuse, before any work is done, an output file in a missing directory
    or one that is a directory, and two outputs that name one file."""
    given = {name: getattr(args, name) for name in _OUT_FLAGS if getattr(args, name, None)}
    named = {}
    for name, path in given.items():
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        first = named.setdefault(os.path.realpath(path), name)
        if first != name:
            raise ValueError(f"{_flag_name(first)} and {_flag_name(name)} both name the file "
                             f"{path!r}; give each output its own")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dirs(args)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
