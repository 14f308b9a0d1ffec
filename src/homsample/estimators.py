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
and the ids of its edges there. Every estimate runs through
:func:`estimate_block(block, signal, incl, pairs) <estimate_block>`, which
estimates a block of samples (:class:`~homsample.sampling.SampleBlock`: their
parent graph, edge ids and row offsets) for all its metric pairs in one
call: the kernels of :data:`homsample.metrics.METRICS`, the one table of
metric kinds, and ``pi`` are evaluated once per call on the block's edge
ids, each row's totals are the pairwise sums of its own slice, and each
row is checked as one sample is, so a row's point, variance and variance
status, or its invalid reason, are bit for bit those of its sample alone.
A pair's estimates of a block are columns (:class:`Estimates`): float64
points and variances, their statuses, and the reasons of the invalid
rows. :func:`estimate_metric` is the one-row, one-pair case, and the one
place that adds the metric and sizes of an :class:`EstimateReport`. Node homophily is a mean of per-node
ratios, not an edge total, and is only offered as a plug-in on the sampled
subgraph; its node sums, like the variance's, are
:func:`~homsample.metrics.node_sums`, which the exact metric uses too.
:func:`ht_total` and :func:`ht_variance` give the HT total of any per-edge
values and its variance on one sample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphSignal
from .inclusion import InclusionModel
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    METRIC_KINDS,
    METRICS,
    NODE_HOMOPHILY,
    check_signal,
    checked_total_weight,
    node_sums,
)
from .sampling import SampleBlock, SampledGraph, row_offsets

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


@dataclass
class Estimates:
    """One metric pair's estimates of a run of rows, as columns.

    Row r has point ``points[r]``, variance ``variances[r]`` (float64) and
    variance status ``statuses[r]``; its variance is NaN, and reads None,
    where its status is "unsupported". A row in ``invalid`` has the reason
    its sample raises DegenerateSampleError with instead, and nothing in
    the other columns.
    """

    points: np.ndarray
    variances: np.ndarray
    statuses: list
    invalid: dict

    def entries(self, start: int, stop: int) -> list:
        """Rows ``start`` to ``stop``: each row's ``{"point", "variance",
        "variance_status"}`` in Python floats, or its ``{"invalid": reason}``."""
        return [{"invalid": self.invalid[row]} if row in self.invalid else {
                    "point": point,
                    "variance": None if status == VARIANCE_UNSUPPORTED else variance,
                    "variance_status": status}
                for row, point, variance, status in zip(
                    range(start, stop), self.points[start:stop].tolist(),
                    self.variances[start:stop].tolist(), self.statuses[start:stop])]


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with variance status and the sample's sizes."""

    kind: str
    mode: str
    point: float
    variance: float | None
    variance_status: str
    sampled_nodes: int
    sampled_edges: int


def check_mode(kind: str, mode: str):
    """Raise ValueError unless ``mode`` is a supported mode of metric ``kind``."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if mode not in MODES_FOR_KIND[kind]:
        raise ValueError(f"mode {mode!r} not supported for {kind!r} "
                         f"(supported: {', '.join(MODES_FOR_KIND[kind])})")


def _floor_reason(g: Graph, edge: int, pi: float, source: str) -> str:
    return (f"sampled edge ({g.edge_i[edge]}, {g.edge_j[edge]}) has inclusion "
            f"probability {pi:g} below the floor {PI_FLOOR:g} under the "
            f"{source} model, which contradicts this realization; use the "
            "empirical inclusion oracle (empirical_pi), with more replications "
            "if it produced this model")


def _block_pi(block: SampleBlock, incl: InclusionModel, invalid: dict) -> np.ndarray:
    """``incl.pi`` of the edges of ``block``.

    A value below PI_FLOOR contradicts its row's realization: the row goes
    into ``invalid`` (unless a check before made it invalid) with its first
    such edge named, and the value reads 1 so that dividing by it is quiet.
    """
    ids = block.edge_index
    pi = incl.pi[ids]
    bad = np.flatnonzero(pi < PI_FLOOR)
    if len(bad):
        rows, first = np.unique(np.searchsorted(block.offsets, bad, side="right") - 1,
                                return_index=True)
        for row, pos in zip(rows.tolist(), bad[first].tolist()):
            invalid.setdefault(row, _floor_reason(block.parent, ids[pos], pi[pos], incl.source))
        pi[bad] = 1.0
    return pi


def _sampled_values(sample: SampledGraph, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (sample.edge_count,):
        raise ValueError(f"expected one value per sampled edge ({sample.edge_count}), "
                         f"got shape {values.shape}")
    return values


class _Rows:
    """Rows of a flat array, row r at ``offsets[r]:offsets[r + 1]``, grouped by length."""

    def __init__(self, offsets: np.ndarray):
        self.offsets = offsets
        self.lengths = np.diff(offsets)
        if len(self.lengths) == 1:   # one sample's row: a view, with no sort or gather
            self._groups = [([0], np.s_[None, offsets[0]:offsets[1]])]
            return
        order = np.argsort(self.lengths, kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(self.lengths[order])) + 1)
        # each length's rows and the (rows, length) index of their entries
        self._groups = [(rows, offsets[rows, None] + np.arange(self.lengths[rows[0]]))
                        for rows in runs if self.lengths[rows[0]]]

    def sums(self, x: np.ndarray) -> np.ndarray:
        """``x[offsets[r]:offsets[r + 1]].sum()`` for every row r, bit for bit.

        Rows of one length share one 2-D ``.sum(axis=1)``, which adds each row
        pairwise as the 1-D ``.sum()`` of that row does; an empty row sums to 0.
        """
        out = np.zeros(len(self.lengths))
        for rows, index in self._groups:
            out[rows] = x[index].sum(axis=1)
        return out


def _quotients(num: np.ndarray, den) -> np.ndarray:
    """``num / den`` where ``den`` is nonzero, else 0 (those rows are invalid).

    As with the Python floats of one sample, an overflow gives inf and
    inf / inf gives nan without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.divide(num, den, out=np.zeros(len(num)), where=np.asarray(den) != 0)


def _flag(invalid: dict, rows: np.ndarray, message: str):
    """Record ``message`` for the flagged rows that no earlier check made invalid."""
    for row in np.flatnonzero(rows).tolist():
        invalid.setdefault(row, message)


def ht_total(sample: SampledGraph, values, incl: InclusionModel) -> float:
    """Sum of observed values weighted by reciprocal inclusion probabilities."""
    values = _sampled_values(sample, values)
    if sample.edge_count == 0:
        return 0.0
    invalid = {}
    pi = _block_pi(SampleBlock.of(sample), incl, invalid)
    if invalid:
        raise DegenerateSampleError(invalid[0])
    return float((values / pi).sum())


def _row_span_variances(block: SampleBlock, rows: _Rows, values: np.ndarray,
                        incl: InclusionModel, invalid: dict,
                        clamp_negative: bool) -> tuple[np.ndarray, list]:
    """:func:`ht_variance` of each row of ``block`` (``rows`` its offsets)
    that is not ``invalid``, as a variance and a status column (NaN and
    "exact_design" for invalid rows); a row with a sampled pair in a span
    class of joint probability 0 joins ``invalid``. Q, A and the totals are each
    row's own pairwise numpy sums, as on its sample alone, for all rows at once; every
    square is a product (``t * t``), correctly rounded on any libm, and overflows to inf.
    """
    sums, degrees, node_lengths = node_sums(block.parent, block.edge_index, rows.lengths, values)
    node_rows = _Rows(row_offsets(node_lengths))
    m = rows.lengths
    pairs3 = np.diff(row_offsets(degrees * degrees)[node_rows.offsets]) - 2 * m
    joint = incl.joint_by_span
    spans = ((3, pairs3), (4, m * m - m - pairs3))
    for span, pairs in spans:
        if joint[span] <= 0:
            for row in np.flatnonzero(pairs).tolist():
                invalid.setdefault(row, f"{pairs[row]} observed ordered edge pairs spanning {span} "
                                        f"nodes have joint inclusion probability 0 under the "
                                        f"{incl.source} model, which contradicts this realization")
    dead = np.zeros(len(m), dtype=bool)
    dead[list(invalid)] = True
    live = ~dead & (m > 0)
    variances, statuses = np.where(dead, np.nan, 0.0), [VARIANCE_EXACT] * len(m)
    if not live.any():   # pi may be 0 here: an SRS model with n_star = 1
        return variances, statuses
    with np.errstate(over="ignore", invalid="ignore"):
        q = rows.sums(values * values)
        a = node_rows.sums(sums * sums) - 2.0 * q
        t = rows.sums(values)
        d = t * t - q - a
        p = float(incl.pi[0])   # a span model has one pi
        inv_sq = 1.0 / (p * p)
        est = q * (inv_sq - 1.0 / p)
        for (span, pairs), x in zip(spans, (a, d)):
            # a class without a pair in any live row adds nothing; its joint may be 0
            has = live & (pairs > 0)
            if has.any():
                est[has] += x[has] * (inv_sq - 1.0 / joint[span])
    variances[live] = est[live]
    # -inf is an overflow, not a rounding below 0: it stays, and makes its estimate invalid
    for row in np.flatnonzero(live & (est < 0) & (est > -np.inf) & clamp_negative).tolist():
        variances[row], statuses[row] = 0.0, VARIANCE_CLAMPED
    return variances, statuses


def ht_variance(sample: SampledGraph, values, incl: InclusionModel,
                clamp_negative: bool = True) -> tuple[float | None, str]:
    """Design variance estimate of the HT total, from the sample alone.

    Returns ``(value, status)``: the double sum over sampled edge pairs of
    ``V_e V_f (1/(pi_e pi_f) - 1/pi_ef)``, with ``pi_ee = pi_e``. Finite
    negative results clamp to 0 with status "negative_clamped" (the raw
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
    block = SampleBlock.of(sample)
    invalid = {}   # a pi below the floor, then a zero joint
    _block_pi(block, incl, invalid)
    variances, statuses = _row_span_variances(block, _Rows(block.offsets), values, incl,
                                              invalid, clamp_negative)
    if invalid:
        raise DegenerateSampleError(invalid[0])
    return float(variances[0]), statuses[0]


def estimate_block(block: SampleBlock, signal: GraphSignal, incl: InclusionModel | None,
                   pairs) -> dict:
    """``{"kind:mode": Estimates}`` for each (kind, mode) of ``pairs``, one
    row per row of ``block``: the row's point, variance and variance status
    as :func:`estimate_metric` reports them, or the reason of the
    DegenerateSampleError it raises. ``incl`` is required unless every mode
    is "plug_in". Normalized energy of a feature signal is refused, as the
    exact metric refuses it.

    - each kernel of :data:`~homsample.metrics.METRICS` is evaluated once
      per call on the block's edge ids and dropped after the last pair that
      reads it;
    - ``pi``, with its floor test, is gathered once per call, and each
      ratio's ``scale * edge_w`` once per pair; a value weighs 1 (plug-in)
      or 1/pi, and its total divides by 1, the known normalizer, or the
      same weighted sum of ``scale * edge_w``;
    - a row's totals are the 1-D pairwise sums of its contiguous slice
      (``_Rows.sums``), node sums come from one bincount over
      ``row * n + node`` (:func:`~homsample.metrics.node_sums`), and the
      span variance's Q and A are each row's own pairwise sums too; no BLAS
      product reads any of them.

    A kernel is elementwise in the edges, so every value has the bits of a
    kernel on one row's sample alone, and so has each row's estimate. A row
    fails the checks in the order one sample does: the pi floor, then a zero
    denominator or a zero joint, then a non-finite point or, where the mode
    has a design variance, a non-finite variance, both under the one reason
    "non-finite estimate for kind/mode".
    """
    for kind, mode in pairs:
        check_mode(kind, mode)
        check_signal(kind, signal)
        if mode != PLUG_IN and incl is None:
            raise ValueError(f"mode {mode!r} requires an inclusion model")
    rows = _Rows(block.offsets)
    # each kernel's values at the block's edges, kept until the last pair that reads them
    kernels, left = {}, Counter(METRICS[kind][0] for kind, _ in pairs)
    floor, pi = {}, None   # the rows that fail pi's floor test, and pi at the edges
    out = {}
    for kind, mode in pairs:
        kernel = METRICS[kind][0]
        if kernel not in kernels:
            kernels[kernel] = kernel(block.parent, signal, block.edge_index)
        left[kernel] -= 1
        if mode != PLUG_IN and pi is None:
            pi = _block_pi(block, incl, floor)
        out[f"{kind}:{mode}"] = _estimate_rows(
            block, rows, kind, mode, kernels[kernel] if left[kernel] else kernels.pop(kernel),
            pi, incl, {} if mode == PLUG_IN else dict(floor))
    return out


def _estimate_rows(block: SampleBlock, rows: _Rows, kind: str, mode: str, values: np.ndarray,
                   pi: np.ndarray | None, incl: InclusionModel | None, invalid: dict) -> Estimates:
    """The estimates of one metric pair on the rows of ``block``: ``values``
    is its kernel at the block's edges and ``invalid`` maps a row to the
    reason of the first check it fails."""
    g, ids = block.parent, block.edge_index
    variances = np.full(len(rows.lengths), np.nan)
    statuses = [VARIANCE_UNSUPPORTED] * len(rows.lengths)
    finite = True   # the rows whose design variance, where the mode has one, is finite
    if kind == NODE_HOMOPHILY:
        _flag(invalid, rows.lengths == 0, "no sampled edges; node homophily undefined")
        sums, counts, node_lengths = node_sums(g, ids, rows.lengths, values)
        node_rows = _Rows(row_offsets(node_lengths))
        points = _quotients(node_rows.sums(sums / counts), node_rows.lengths)
    else:
        scale = METRICS[kind][1]
        if scale is None:
            den = 1.0
        elif mode == KNOWN_DENOMINATOR:
            den = scale * checked_total_weight(g, kind)
            if den <= 0:
                raise ValueError("parent graph has no edge weight")
        else:
            weights = g.edge_w[ids]
            weights *= scale
            if mode == HAJEK_RATIO:
                weights /= pi
            den = rows.sums(weights)
            _flag(invalid, den == 0.0,
                  "empty sample; plug-in ratio undefined" if mode == PLUG_IN else
                  "zero HT denominator (empty or degenerate sample)")
        points = _quotients(rows.sums(values if mode == PLUG_IN else values / pi), den)
        if mode in (HT_TOTAL, KNOWN_DENOMINATOR) and incl.has_joint:
            variances, statuses = _row_span_variances(block, rows, values, incl, invalid, True)
            # an overflow gives inf, as for the points, and makes the row invalid
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                variances /= den * den
            finite = np.isfinite(variances)
    _flag(invalid, ~(np.isfinite(points) & finite), f"non-finite estimate for {kind}/{mode}")
    return Estimates(points, variances, statuses, invalid)


def estimate_metric(sample: SampledGraph, signal: GraphSignal, kind: str, mode: str,
                    incl: InclusionModel | None = None) -> EstimateReport:
    """Estimate one homophily metric from a sampled graph.

    A metric takes its per-edge kernel and scale from ``METRICS``; an edge
    metric's total divides by 1, a ratio by the scale times the total edge
    weight of the sample ("plug_in"), its HT estimate ("hajek_ratio") or the
    parent graph ("known_denominator"). ``incl`` is required unless "plug_in".
    Degenerate realizations (an empty sample under a ratio mode, or an edge
    the model gives probability 0) raise DegenerateSampleError. This is
    the one-row case of :func:`estimate_block`, which evaluates the kernels
    on the sampled edges alone.
    """
    (estimates,) = estimate_block(SampleBlock.of(sample), signal, incl, ((kind, mode),)).values()
    if estimates.invalid:
        raise DegenerateSampleError(estimates.invalid[0])
    (estimate,) = estimates.entries(0, 1)
    return EstimateReport(kind, mode, **estimate, sampled_nodes=sample.node_count,
                          sampled_edges=sample.edge_count)
