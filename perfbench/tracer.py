"""Per-layer tracing of homsample from outside its source tree.

A :class:`Tracer` replaces each target function with a wrapper that
records one span (target, parent span, start, end) per call and updates
a few counters from the call's arguments and result. Targets are named
``<module>.<attr>`` or ``<module>.<Class>.<method>`` relative to the
``homsample`` package. Module-level functions are rebound in every
``homsample.*`` module that holds the original object, because ``cli``
and ``harness`` import names directly; methods are replaced on their
class. A target that no longer exists is listed as absent.

Spans are kept in memory. Each thread has its own span stack; a span
opened on a worker thread with an empty stack takes the innermost open
main-thread span as its parent, which is the call that submitted the work.

Run as a script, this file is the traced child of one CLI operation::

    python perfbench/tracer.py TRACE_PREFIX homsample-args...

It installs the tracer, calls ``homsample.cli.main`` with the arguments,
and on exit writes ``TRACE_PREFIX.npy`` (spans) and ``TRACE_PREFIX.json``
(names, counters, absent targets, hook errors).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter
from time import perf_counter_ns

import numpy as np

PACKAGE = "homsample"

TARGETS = (
    "cli.main",
    "graph.load_dataset",
    "graph.load_edge_list",
    "graph.load_labels",
    "metrics.exact_metric",
    "inclusion.inclusion_for",
    "inclusion.edge_betweenness",
    "inclusion.empirical_pi",
    "inclusion.InclusionModel.joint_matrix",
    "sampling.draw_sample",
    "sampling.realize_edge_ids",
    "shortest_paths.path_dag",
    "shortest_paths.sample_path",
    "estimators.estimate_metric",
    "estimators.ht_total",
    "estimators.ht_variance",
    "harness.run_experiment",
    "harness.RunRecord.to_json",
    "harness.summarize",
    "rng.make_rng",
    "rng.child_rng",
    "rng.derive_seed",
    "graphon.sample_w_random_graph",
)

# counters a traced operation reports
COUNTERS = (
    "graph.edges_loaded",
    "inclusion.joint_matrix.bytes",
    "inclusion.empirical_pi.realizations",
    "inclusion.empirical_pi.unobserved_edges",
    "shortest_paths.path_dag.distinct_sources",
    "shortest_paths.path_dag.reuse_ratio",
    "shortest_paths.sample_path.unreachable",
    "estimators.estimate_metric.degenerate",
    "estimators.ht_variance.pair_terms",
    "estimators.ht_variance.unsupported",
    "harness.record_bytes",
    "harness.invalid_reps",
)


# -- counter hooks: (tracer, args, kwargs, result, exc) -> None ---------------

def _edges_loaded(t, args, kwargs, result, exc):
    if exc is None:
        t.counts["graph.edges_loaded"] += result.edge_count


def _joint_bytes(t, args, kwargs, result, exc):
    if exc is None:
        t.counts["inclusion.joint_matrix.bytes"] += result.shape[0] ** 2 * 8


def _empirical_pi(t, args, kwargs, result, exc):
    if exc is None:
        reps = kwargs["replications"] if "replications" in kwargs else args[2]
        t.counts["inclusion.empirical_pi.realizations"] += int(reps)
        t.counts["inclusion.empirical_pi.unobserved_edges"] += int((result.pi == 0).sum())


def _path_dag(t, args, kwargs, result, exc):
    g = args[0]
    source = kwargs["source"] if "source" in kwargs else args[1]
    t.dag_calls += 1
    t.dag_sources.add((id(g), int(source)))


def _sample_path(t, args, kwargs, result, exc):
    if exc is None and result is None:
        t.counts["shortest_paths.sample_path.unreachable"] += 1


def _estimate_metric(t, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateSampleError":
        t.counts["estimators.estimate_metric.degenerate"] += 1


def _ht_variance(t, args, kwargs, result, exc):
    if exc is None:
        value, status = result
        if status == "unsupported":
            t.counts["estimators.ht_variance.unsupported"] += 1
        else:
            sample = kwargs["sample"] if "sample" in kwargs else args[0]
            t.counts["estimators.ht_variance.pair_terms"] += sample.edge_count ** 2


def _record_bytes(t, args, kwargs, result, exc):
    if exc is None:
        t.counts["harness.record_bytes"] += len(result.encode("utf-8"))


def _invalid_reps(t, args, kwargs, result, exc):
    if exc is None:
        t.counts["harness.invalid_reps"] += sum(
            s.invalid for sweep in result.sweeps for s in sweep.summaries.values())


HOOKS = {
    "graph.load_edge_list": _edges_loaded,
    "inclusion.InclusionModel.joint_matrix": _joint_bytes,
    "inclusion.empirical_pi": _empirical_pi,
    "shortest_paths.path_dag": _path_dag,
    "shortest_paths.sample_path": _sample_path,
    "estimators.estimate_metric": _estimate_metric,
    "estimators.ht_variance": _ht_variance,
    "harness.RunRecord.to_json": _record_bytes,
    "harness.run_experiment": _invalid_reps,
}


class Tracer:
    """In-memory span recorder for a fixed list of target names."""

    def __init__(self, targets=TARGETS):
        self.names = list(targets)
        self.absent = []
        self.hook_errors = {}
        self.counts = Counter()
        self.dag_sources = set()
        self.dag_calls = 0
        self.spans = []                # [target index, parent span, start ns, end ns]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []

    def install(self):
        """Wrap every target that exists; record the rest as absent."""
        for fid, name in enumerate(self.names):
            module, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(fid, name, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fid, name, fn):
        hook = HOOKS.get(name)
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            rec = [fid, parent, perf_counter_ns(), 0]
            with lock:
                idx = len(spans)
                spans.append(rec)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
                if hook is not None:
                    with lock:  # counters are read-modify-write; pool threads share them
                        try:
                            hook(self, args, kwargs, result, exc)
                        except Exception as e:  # a renamed field must not fail the operation
                            self.hook_errors.setdefault(name, repr(e))

        return wrapper

    def span_array(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 4)

    def counters(self) -> dict:
        out = {name: 0 for name in COUNTERS}
        out.update(self.counts)
        distinct = len(self.dag_sources)
        out["shortest_paths.path_dag.distinct_sources"] = distinct
        if self.dag_calls:
            out["shortest_paths.path_dag.reuse_ratio"] = (self.dag_calls - distinct) / self.dag_calls
        return out

    def write(self, prefix: str):
        np.save(prefix + ".npy", self.span_array())
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters(),
                       "absent": self.absent, "hook_errors": self.hook_errors}, fh)


def layer_times(spans: np.ndarray, n_targets: int) -> tuple:
    """Per-target (calls, total ns, self ns) from a span array.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it; children on worker threads may overlap.
    """
    fid, parent, start, end = (spans[:, k] for k in range(4))
    dur = end - start
    covered = [0] * len(spans)
    order = np.lexsort((start, parent))
    order = order[np.searchsorted(parent[order], 0):].tolist()
    par, beg, fin = parent.tolist(), start.tolist(), end.tolist()
    cur = hi = -1
    for k in order:
        p = par[k]
        s, e = max(beg[k], beg[p]), min(fin[k], fin[p])
        if p != cur:
            cur, hi = p, s
        s = max(s, hi)
        if e > s:
            covered[p] += e - s
            hi = e
    covered = np.array(covered, dtype=np.int64)
    calls = np.bincount(fid, minlength=n_targets)
    total = np.bincount(fid, weights=dur, minlength=n_targets)
    own = np.bincount(fid, weights=dur - covered, minlength=n_targets)
    return calls, total, own


def main(argv) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
