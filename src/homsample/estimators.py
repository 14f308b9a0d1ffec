"""Horvitz-Thompson estimation of edge-total homophily statistics.

The point estimator weights each observed per-edge value by its reciprocal
inclusion probability, which is design-unbiased for the population total
whenever every edge has positive inclusion probability. Its variance is
estimable from the sample when pairwise joint inclusion probabilities
exist (induced designs); under traceroute they do not, and variance is
reported as unsupported rather than approximated, as it is for the
empirical oracle, which estimates no joints. Closed-form joints depend
only on how many nodes an edge pair spans, so the variance is a few
per-edge and per-node sums, linear in the sampled edges plus one bincount
over their endpoint ids; a zero joint can only be a whole span class.

Normalized metrics are estimated either as a ratio of two HT totals
("hajek_ratio", the default: consistent, not exactly unbiased) or by
dividing one HT total by the parent graph's known normalizer
("known_denominator": exactly unbiased). A sample carries its parent graph
and the ids of its edges there. Every estimate reads :class:`SweepColumns`:
the :mod:`homsample.metrics` kernels evaluated once over all of the
parent's edges, with the ratio denominators, the parent's total weight and
one test of ``pi`` against PI_FLOOR. A sample gathers its edge ids from
them, so an experiment builds them once per sweep value and
:func:`estimate_metric` once per call. Node homophily is a mean of per-node
ratios, not an edge total, and is only offered as a plug-in on the sampled
subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphSignal, total_edge_weight
from .inclusion import InclusionModel
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    EDGE_METRICS,
    METRIC_KINDS,
    NODE_HOMOPHILY,
    node_mean_ratio,
    node_sums,
    same_label_values,
)
from .sampling import SampledGraph, design_to_dict

# estimators refuse inclusion probabilities below this
PI_FLOOR = 1e-12

HT_TOTAL = "ht_total"
PLUG_IN = "plug_in"
HAJEK_RATIO = "hajek_ratio"
KNOWN_DENOMINATOR = "known_denominator"

# supported modes per metric kind, the default first
MODES_FOR_KIND = {
    DIRICHLET_TOTAL: (HT_TOTAL, PLUG_IN),
    DIRICHLET_NORMALIZED: (HAJEK_RATIO, KNOWN_DENOMINATOR, PLUG_IN),
    EDGE_HOMOPHILY: (HAJEK_RATIO, KNOWN_DENOMINATOR, PLUG_IN),
    NODE_HOMOPHILY: (PLUG_IN,),
}

VARIANCE_EXACT = "exact_design"
VARIANCE_UNSUPPORTED = "unsupported"
VARIANCE_CLAMPED = "negative_clamped"


class DegenerateSampleError(ValueError):
    """The realization cannot support the requested estimator.

    Raised for a zero ratio denominator or an empty sample, for a sampled
    edge that the inclusion model gives probability 0, which an undersized
    empirical oracle produces, and for sampled edge pairs whose span class
    has closed-form joint probability 0. The experiment harness records
    such a replication as invalid.
    """


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with variance status and sample provenance."""

    kind: str
    mode: str
    point: float
    variance: float | None
    variance_status: str
    sampled_nodes: int
    sampled_edges: int
    design: dict | None
    seed: int | None


def check_mode(kind: str, mode: str):
    """Raise ValueError unless ``mode`` is a supported mode of metric ``kind``."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if mode not in MODES_FOR_KIND[kind]:
        raise ValueError(f"mode {mode!r} not supported for {kind!r} "
                         f"(supported: {', '.join(MODES_FOR_KIND[kind])})")


def _check_request(kind: str, mode: str, incl: InclusionModel | None):
    check_mode(kind, mode)
    if mode != PLUG_IN and incl is None:
        raise ValueError(f"mode {mode!r} requires an inclusion model")


def _floor_error(g: Graph, edge: int, pi: float, source: str) -> DegenerateSampleError:
    return DegenerateSampleError(
        f"sampled edge ({g.edge_i[edge]}, {g.edge_j[edge]}) has inclusion "
        f"probability {pi:g} below the floor {PI_FLOOR:g} under the "
        f"{source} model, which contradicts this realization; use the "
        "empirical inclusion oracle (empirical_pi), with more replications "
        "if it produced this model")


def _positive_pi(sample: SampledGraph, incl: InclusionModel) -> np.ndarray:
    """``incl.pi`` of the sampled edges; a value below PI_FLOOR contradicts the realization."""
    ids = sample.edge_index
    pi = incl.pi[ids]
    bad = np.nonzero(pi < PI_FLOOR)[0]
    if len(bad):
        raise _floor_error(sample.parent, ids[bad[0]], pi[bad[0]], incl.source)
    return pi


def _sampled_values(sample: SampledGraph, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (sample.edge_count,):
        raise ValueError(f"expected one value per sampled edge ({sample.edge_count}), "
                         f"got shape {values.shape}")
    return values


def ht_total(sample: SampledGraph, values, incl: InclusionModel) -> float:
    """Sum of observed values weighted by reciprocal inclusion probabilities."""
    values = _sampled_values(sample, values)
    if sample.edge_count == 0:
        return 0.0
    return float((values / _positive_pi(sample, incl)).sum())


def plug_in_total(sample: SampledGraph, values) -> float:
    """Unweighted total over the sampled edges (biased by pi under any design)."""
    return float(_sampled_values(sample, values).sum())


def _span_variance(g: Graph, ids: np.ndarray, values: np.ndarray, pi: np.ndarray,
                   incl: InclusionModel, clamp_negative: bool) -> tuple[float, str]:
    """The span-sum variance of :func:`ht_variance` over g's sampled edges ``ids``,
    whose inclusion probabilities ``pi`` a closed-form model makes all equal."""
    m = len(ids)
    if m == 0:
        return 0.0, VARIANCE_EXACT
    sums, degrees = node_sums(g.edge_i[ids], g.edge_j[ids], values)
    q = float(values @ values)
    a = float(sums @ sums) - 2.0 * q
    d = float(values.sum()) ** 2 - q - a
    pairs3 = int(degrees @ degrees) - 2 * m
    pairs4 = m * m - m - pairs3
    joint = incl.joint_by_span
    for span, pairs in ((3, pairs3), (4, pairs4)):
        if pairs and joint[span] <= 0:
            raise DegenerateSampleError(
                f"{pairs} observed ordered edge pairs spanning {span} nodes have joint "
                f"inclusion probability 0 under the {incl.source} model, which "
                "contradicts this realization")
    pi = float(pi[0])
    inv_sq = 1.0 / pi ** 2
    est = q * (inv_sq - 1.0 / pi)
    if pairs3:
        est += a * (inv_sq - 1.0 / joint[3])
    if pairs4:
        est += d * (inv_sq - 1.0 / joint[4])
    est = float(est)
    if est < 0 and clamp_negative:
        return 0.0, VARIANCE_CLAMPED
    return est, VARIANCE_EXACT


def ht_variance(sample: SampledGraph, values, incl: InclusionModel,
                clamp_negative: bool = True) -> tuple[float | None, str]:
    """Design variance estimate of the HT total, from the sample alone.

    Returns ``(value, status)``: the double sum over sampled edge pairs of
    ``V_e V_f (1/(pi_e pi_f) - 1/pi_ef)``, with ``pi_ee = pi_e``. Negative
    numerical results clamp to 0 with status "negative_clamped" (the raw
    estimator is the design-unbiased one; pass ``clamp_negative=False`` to
    get it). Designs without joint probabilities yield
    ``(None, "unsupported")``.

    Under a closed-form model the joint of two distinct edges depends only
    on the number k of nodes they span (``joint_by_span[k]``, k = 3 or 4;
    two edges of a simple graph share at most one node), so the double sum
    collapses to span sums over the m_s sampled edges, in O(m_s) work plus
    one bincount over their endpoint ids:

        Q = sum V^2,  A = sum_v S_v^2 - 2Q,  D = (sum V)^2 - Q - A,
        est = Q (1/pi^2 - 1/pi) + A (1/pi^2 - 1/j_3) + D (1/pi^2 - 1/j_4),

    where S_v sums V over the sampled edges at node v, and A and D are the
    sums of ``V_e V_f`` over ordered pairs spanning 3 and 4 nodes. A span
    class with no pair in the sample contributes nothing; a sampled pair
    in a class of joint probability 0 raises DegenerateSampleError.
    """
    values = _sampled_values(sample, values)
    if not incl.has_joint:
        return None, VARIANCE_UNSUPPORTED
    return _span_variance(sample.parent, sample.edge_index, values,
                          _positive_pi(sample, incl), incl, clamp_negative)


def _ratio_of_totals(numerator: np.ndarray, denominator: np.ndarray, pi: np.ndarray) -> float:
    den = float((denominator / pi).sum())
    if den == 0.0:
        raise DegenerateSampleError("zero HT denominator (empty or degenerate sample)")
    return float((numerator / pi).sum()) / den


def hajek_ratio(sample: SampledGraph, numerator_values, denominator_values,
                incl: InclusionModel) -> float:
    """Ratio of two HT totals; under uniform pi this is the plain sample ratio."""
    return _ratio_of_totals(_sampled_values(sample, numerator_values),
                            _sampled_values(sample, denominator_values),
                            _positive_pi(sample, incl))


class SweepColumns:
    """Per-edge columns of one graph, signal and inclusion model, built once.

    An experiment builds one per sweep value, and every replication's
    estimates gather their sampled ids from it:

    - each needed ``EDGE_METRICS`` kernel over all m edges, one array per
      kernel, so the two Dirichlet kinds share one;
    - each ratio kind's ``scale * edge_w`` and the parent's total weight;
    - node homophily's same-label indicator per edge;
    - the inclusion model's ``pi`` and one floor test over all edges.

    A kernel is elementwise in the edges, so a gathered column holds the
    bits a kernel on the sampled subset would give, and an estimate is the
    same elementwise division and 1-D sum as on that subset.
    """

    def __init__(self, g: Graph, signal: GraphSignal, incl: InclusionModel | None, kinds):
        self.graph = g
        self.incl = incl
        self._values, self._den, self._known = {}, {}, {}
        by_kernel, weight = {}, total_edge_weight(g)
        for kind in kinds:
            if kind == NODE_HOMOPHILY:
                self._values[kind] = same_label_values(g, signal)
                continue
            kernel, scale = EDGE_METRICS[kind]
            if kernel not in by_kernel:
                by_kernel[kernel] = kernel(g, signal)
            self._values[kind] = by_kernel[kernel]
            self._known[kind] = 1.0 if scale is None else scale * weight
            if scale is not None:
                self._den[kind] = scale * g.edge_w
        low = None if incl is None else incl.pi < PI_FLOOR
        self._low = low if low is not None and low.any() else None
        self._design = self._design_dict = None

    def _pi(self, ids: np.ndarray) -> np.ndarray:
        """``pi`` of the sampled edges ``ids``; a value below PI_FLOOR contradicts the realization."""
        pi = self.incl.pi[ids]
        if self._low is not None:
            bad = np.flatnonzero(self._low[ids])
            if len(bad):
                raise _floor_error(self.graph, ids[bad[0]], pi[bad[0]], self.incl.source)
        return pi

    def _report_design(self, design) -> dict | None:
        # a replication's estimates share one dict
        if design is not self._design:
            self._design = design
            self._design_dict = design_to_dict(design) if design is not None else None
        return self._design_dict

    def estimate(self, sample: SampledGraph, kind: str, mode: str) -> EstimateReport:
        """The :func:`estimate_metric` report of ``sample``, a sample of this graph;
        ``kind`` must be one the columns were built for."""
        _check_request(kind, mode, self.incl)
        if sample.parent is not self.graph:
            raise ValueError("sample is not drawn from the graph of these columns")
        g, ids = self.graph, sample.edge_index
        values = self._values[kind][ids]
        variance = None
        variance_status = VARIANCE_UNSUPPORTED

        if kind == NODE_HOMOPHILY:
            if not len(ids):
                raise DegenerateSampleError("no sampled edges; node homophily undefined")
            point = node_mean_ratio(g.edge_i[ids], g.edge_j[ids], values)
        else:
            if mode == PLUG_IN:
                den = float(self._den[kind][ids].sum()) if kind in self._den else 1.0
                if den == 0.0:
                    raise DegenerateSampleError("empty sample; plug-in ratio undefined")
                point = float(values.sum()) / den
            elif mode == HAJEK_RATIO:
                point = _ratio_of_totals(values, self._den[kind][ids], self._pi(ids))
            else:  # ht_total, or known_denominator
                den = self._known[kind]
                if den <= 0:
                    raise ValueError("parent graph has no edge weight")
                pi = self._pi(ids)
                point = float((values / pi).sum()) / den
                if self.incl.has_joint:
                    var, variance_status = _span_variance(g, ids, values, pi, self.incl, True)
                    variance = var / den ** 2

        if not math.isfinite(point):
            raise DegenerateSampleError(f"non-finite estimate for {kind}/{mode}")
        design = sample.design
        return EstimateReport(
            kind=kind,
            mode=mode,
            point=point,
            variance=variance,
            variance_status=variance_status,
            sampled_nodes=sample.node_count,
            sampled_edges=len(ids),
            design=self._report_design(design),
            seed=design.seed if design is not None else None,
        )


def estimate_metric(sample: SampledGraph, signal: GraphSignal, kind: str, mode: str,
                    incl: InclusionModel | None = None) -> EstimateReport:
    """Estimate one homophily metric from a sampled graph.

    Edge metrics take their per-edge kernel and scale from ``EDGE_METRICS``:
    a total divides by 1, a ratio by the scale times the total edge weight
    of the sample ("plug_in"), its HT estimate ("hajek_ratio") or the parent
    graph ("known_denominator"). ``incl`` is required unless "plug_in".
    Degenerate realizations (an empty sample under a ratio mode, or an edge
    the model gives probability 0) raise DegenerateSampleError. This is
    :meth:`SweepColumns.estimate` on columns built for the one kind.
    """
    _check_request(kind, mode, incl)
    return SweepColumns(sample.parent, signal, incl, (kind,)).estimate(sample, kind, mode)
