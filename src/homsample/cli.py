"""Command-line interface.

Subcommands: info, homophily, sample, estimate, experiment, graphon.
Machine-readable results are always JSON/CSV written to paths given by
flags (or stdout); human-readable tables go to standard output only. The
seed defaults to a fixed constant so repeated invocations are
byte-identical unless --seed is given.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .estimators import MODES_FOR_KIND, PLUG_IN, estimate_metric
from .graph import load_dataset, load_edge_list, load_labelled, total_edge_weight
from .graphon import convergence_experiment, phi_step, two_block_graphon
from .harness import (
    ExperimentConfig,
    resolve_design,
    run_experiment,
    summarize,
    sweep_inclusion,
    write_estimates_csv,
    write_histogram_csv,
    write_summary_csv,
)
from .jsonout import dumps_indented
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    NODE_HOMOPHILY,
    dirichlet_energy,
    homophily_profile,
)
from .rng import DEFAULT_SEED
from .sampling import design_params, draw_sample

METRIC_ALIASES = {
    "dirichlet": DIRICHLET_NORMALIZED,
    "dirichlet_normalized": DIRICHLET_NORMALIZED,
    "dirichlet_total": DIRICHLET_TOTAL,
    "edge": EDGE_HOMOPHILY,
    "edge_homophily": EDGE_HOMOPHILY,
    "node": NODE_HOMOPHILY,
    "node_homophily": NODE_HOMOPHILY,
}
TABLE_METRICS = (DIRICHLET_NORMALIZED, EDGE_HOMOPHILY, NODE_HOMOPHILY)


def _metric_kind(name: str) -> str:
    try:
        return METRIC_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r} "
                         f"(choices: {', '.join(sorted(METRIC_ALIASES))})") from None


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
        return load_dataset(args.manifest)
    if not args.edges:
        raise ValueError("provide --manifest or --edges")
    if args.labels:
        if args.classes is None:
            raise ValueError("--labels requires --classes")
        g, s = load_labelled(args.edges, args.labels, args.classes)
    else:
        g, s = load_edge_list(args.edges), None
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


def _floats(text):
    return [float(x) for x in text.split(",") if x]


def _ints(text):
    return [int(x) for x in text.split(",") if x]


# each design's parameter flags, by their argparse names
_DESIGN_FLAGS = {"bernoulli": ("p",), "srs": ("frac", "n_star"),
                 "traceroute": ("sources", "targets")}


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


def _design_values(args):
    """Per-sweep design parameter dicts as given by the flags; a flag of
    another design, or both SRS sizes, is an error that names the flag."""
    for design, names in _DESIGN_FLAGS.items():
        for name in names:
            if design != args.design and getattr(args, name) is not None:
                raise ValueError(f"{_flag_name(name)} belongs to the {design} design, "
                                 f"not to {args.design}")
    if args.design == "bernoulli":
        if not args.p:
            raise ValueError("bernoulli design requires --p")
        return [{"p": p} for p in _floats(args.p)]
    if args.design == "srs":
        if args.n_star is not None and args.frac is not None:
            raise ValueError("--n-star and --frac both set the SRS sample size; give one")
        if args.n_star:
            return [{"n_star": v} for v in _ints(args.n_star)]
        if args.frac:
            return [{"frac": f} for f in _floats(args.frac)]
        raise ValueError("srs design requires --frac or --n-star")
    if not (args.sources and args.targets):
        raise ValueError("traceroute design requires --sources and --targets")
    src, tgt = _ints(args.sources), _ints(args.targets)
    if len(src) != len(tgt):
        raise ValueError("--sources and --targets must have the same length")
    return [{"n_sources": s, "n_targets": t} for s, t in zip(src, tgt)]


def _single_design(args, n, seed):
    values = _design_values(args)
    if len(values) != 1:
        raise ValueError("this command takes exactly one design parameter value")
    return resolve_design({"kind": args.design, "seed": seed}, values[0], n)


def _emit_json(obj, out_path):
    text = dumps_indented(obj) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_info(args):
    g, s, name = _load_from_flags(args, need_labels=False)
    info = {
        "name": name,
        "nodes": g.node_count,
        "edges": g.edge_count,
        "total_edge_weight": total_edge_weight(g),
    }
    if s is not None and s.labels is not None:
        counts = np.bincount(s.labels, minlength=s.dim)
        info["classes"] = s.dim
        info["class_counts"] = [int(c) for c in counts]
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
    g, s, name = _load_from_flags(args, need_labels=False)
    design = _single_design(args, g.node_count, args.seed)
    sample = draw_sample(g, design)
    incl = sweep_inclusion(g, design, args.seed, 0, args.pi, args.pi_reps)
    _emit_json(sample.to_json_dict(incl), args.out)
    return 0


def _cmd_estimate(args):
    g, s, name = _load_from_flags(args)
    design = _single_design(args, g.node_count, args.seed)
    kind = _metric_kind(args.metric)
    mode = args.mode or MODES_FOR_KIND[kind][0]
    sample = draw_sample(g, design)
    # plug-in estimates never read pi
    incl = None if mode == PLUG_IN else sweep_inclusion(g, design, args.seed, 0, args.pi, args.pi_reps)
    report = estimate_metric(sample, s, kind, mode, incl=incl)
    _emit_json({"dataset": name, **vars(report)}, args.out)
    return 0


def _cmd_experiment(args):
    g, s, name = _load_from_flags(args)
    sweep = [design_params(resolve_design({"kind": args.design}, v, g.node_count))
             for v in _design_values(args)]
    if args.metric == "all":
        kinds = list(TABLE_METRICS)
    else:
        kinds = [_metric_kind(m) for m in args.metric.split(",")]
    pairs = tuple((k, args.mode or MODES_FOR_KIND[k][0]) for k in kinds)
    cfg = ExperimentConfig(
        dataset=name,
        design={"kind": args.design},
        metrics=pairs,
        replications=args.reps,
        base_seed=args.seed,
        sweep=tuple(sweep),
        bins=args.bins,
        pi_source=args.pi,
        pi_replications=args.pi_reps,
    )
    record = run_experiment(cfg, dataset=(g, s))
    for row in summarize(record):
        mean, bias, std = (np.nan if row[c] is None else row[c] for c in ("mean", "bias", "std"))
        print(f"{row['dataset']} {row['kind']}[{row['mode']}] {row['param']}: "
              f"gt={row['ground_truth']:.4f} mean={mean:.4f} "
              f"bias={bias:+.4f} std={std:.4f} invalid={row['invalid']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(record.to_json())
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


def _cmd_graphon(args):
    if args.check_identity:
        g, s, name = _load_from_flags(args)
        tv = dirichlet_energy(g, s)
        phi = phi_step(g, s)
        scaled = phi * g.node_count ** 2
        residual = abs(scaled - tv) / max(abs(tv), 1.0)
        print(f"{name}: tv={tv:g} phi*n^2={scaled:g} relative_residual={residual:.3e}")
        _emit_json({"dataset": name, "tv": tv, "phi": phi,
                    "phi_times_n_squared": scaled, "relative_residual": residual}, args.out)
        return 0 if residual < 1e-9 else 1
    # convergence study on a two-block graphon
    w, sig = two_block_graphon(args.p_in, args.p_out)
    result = convergence_experiment(w, sig, _ints(args.sizes), args.reps, args.seed)
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
    p.add_argument("--pi", choices=["analytic", "empirical"], default="analytic")
    p.add_argument("--pi-reps", type=int, default=100_000,
                   help="replications for the empirical inclusion oracle")
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
    p.add_argument("--pi", choices=["analytic", "empirical"], default="analytic")
    p.add_argument("--pi-reps", type=int, default=100_000)
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
    p.add_argument("--pi", choices=["analytic", "empirical"], default="analytic")
    p.add_argument("--pi-reps", type=int, default=100_000)
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
    p.add_argument("--p-in", type=float, default=0.5)
    p.add_argument("--p-out", type=float, default=0.2)
    p.add_argument("--sizes", default="50,100,200,400")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", help="JSON output path")
    p.add_argument("--csv", help="convergence series CSV path")
    p.set_defaults(func=_cmd_graphon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
