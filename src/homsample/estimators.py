"""Horvitz-Thompson estimation of edge-total homophily statistics.

The point estimator weights each observed per-edge value by its reciprocal
inclusion probability, which is design-unbiased for the population total
whenever every edge has positive inclusion probability. Its variance is
estimable from the sample when pairwise joint inclusion probabilities
exist (induced designs); under traceroute they do not, and variance is
reported as unsupported rather than approximated, as it is for the
empirical oracle, which estimates no joints. Closed-form joints depend
only on how many nodes an edge pair spans, so the variance is a few
per-edge and per-node sums, linear in the sampled edges up to one sort of
their endpoints; a zero joint can only be a whole span class.

Normalized metrics are estimated either as a ratio of two HT totals
("hajek_ratio", the default: consistent, not exactly unbiased) or by
dividing one HT total by the parent graph's known normalizer
("known_denominator": exactly unbiased). A sample carries its parent graph
and the ids of its edges there; per-edge values come from the
:mod:`homsample.metrics` kernels evaluated on that edge subset. Node
homophily is a mean of per-node ratios, not an edge total, and is only
offered as a plug-in on the sampled subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphSignal, total_edge_weight
from .inclusion import InclusionModel
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    EDGE_METRICS,
    METRIC_KINDS,
    NODE_HOMOPHILY,
    node_homophily,
    node_sums,
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "point": self.point,
            "variance": self.variance,
            "variance_status": self.variance_status,
            "sampled_nodes": self.sampled_nodes,
            "sampled_edges": self.sampled_edges,
            "design": self.design,
            "seed": self.seed,
        }


def check_mode(kind: str, mode: str):
    """Raise ValueError unless ``mode`` is a supported mode of metric ``kind``."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if mode not in MODES_FOR_KIND[kind]:
        raise ValueError(f"mode {mode!r} not supported for {kind!r} "
                         f"(supported: {', '.join(MODES_FOR_KIND[kind])})")


def _positive_pi(sample: SampledGraph, incl: InclusionModel) -> np.ndarray:
    """``incl.pi`` of the sampled edges; a value below PI_FLOOR contradicts the realization."""
    ids = sample.edge_index
    pi = incl.pi[ids]
    bad = np.nonzero(pi < PI_FLOOR)[0]
    if len(bad):
        g, k = sample.parent, ids[bad[0]]
        raise DegenerateSampleError(
            f"sampled edge ({g.edge_i[k]}, {g.edge_j[k]}) has inclusion "
            f"probability {pi[bad[0]]:g} below the floor {PI_FLOOR:g} under the "
            f"{incl.source} model, which contradicts this realization; use the "
            "empirical inclusion oracle (empirical_pi), with more replications "
            "if it produced this model")
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
    collapses to span sums over the m_s sampled edges, in O(m_s) memory and
    the time of one sort of their endpoints:

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
    if sample.edge_count == 0:
        return 0.0, VARIANCE_EXACT
    g, ids = sample.parent, sample.edge_index
    m = len(ids)
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
    # a closed-form model gives every edge the same pi
    pi = float(_positive_pi(sample, incl)[0])
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


def hajek_ratio(sample: SampledGraph, numerator_values, denominator_values,
                incl: InclusionModel) -> float:
    """Ratio of two HT totals; under uniform pi this is the plain sample ratio."""
    den = ht_total(sample, denominator_values, incl)
    if den == 0.0:
        raise DegenerateSampleError("zero HT denominator (empty or degenerate sample)")
    return ht_total(sample, numerator_values, incl) / den


def estimate_metric(sample: SampledGraph, signal: GraphSignal, kind: str, mode: str,
                    incl: InclusionModel | None = None) -> EstimateReport:
    """Estimate one homophily metric from a sampled graph.

    Edge metrics take their per-edge kernel and scale from ``EDGE_METRICS``:
    a total divides by 1, a ratio by the scale times the total edge weight
    of the sample ("plug_in"), its HT estimate ("hajek_ratio") or the parent
    graph ("known_denominator"). ``incl`` is required unless "plug_in".
    Degenerate realizations (an empty sample under a ratio mode, or an edge
    the model gives probability 0) raise DegenerateSampleError.
    """
    check_mode(kind, mode)
    if mode != PLUG_IN and incl is None:
        raise ValueError(f"mode {mode!r} requires an inclusion model")

    g, ids = sample.parent, sample.edge_index
    variance = None
    variance_status = VARIANCE_UNSUPPORTED

    if kind == NODE_HOMOPHILY:
        if sample.edge_count == 0:
            raise DegenerateSampleError("no sampled edges; node homophily undefined")
        point = node_homophily(g, signal, ids)
    else:
        kernel, scale = EDGE_METRICS[kind]
        values = kernel(g, signal, ids)
        if mode == PLUG_IN:
            den = 1.0 if scale is None else float((scale * g.edge_w[ids]).sum())
            if den == 0.0:
                raise DegenerateSampleError("empty sample; plug-in ratio undefined")
            point = plug_in_total(sample, values) / den
        elif mode == HAJEK_RATIO:
            point = hajek_ratio(sample, values, scale * g.edge_w[ids], incl)
        else:  # ht_total, or known_denominator
            den = 1.0 if scale is None else scale * total_edge_weight(g)
            if den <= 0:
                raise ValueError("parent graph has no edge weight")
            point = ht_total(sample, values, incl) / den
            var, variance_status = ht_variance(sample, values, incl)
            variance = var / den ** 2 if var is not None else None

    if not np.isfinite(point):
        raise DegenerateSampleError(f"non-finite estimate for {kind}/{mode}")
    return EstimateReport(
        kind=kind,
        mode=mode,
        point=float(point),
        variance=variance,
        variance_status=variance_status,
        sampled_nodes=sample.node_count,
        sampled_edges=sample.edge_count,
        design=design_to_dict(sample.design) if sample.design is not None else None,
        seed=sample.design.seed if sample.design is not None else None,
    )
