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
:meth:`SweepColumns.estimate_block`, which estimates a block of samples
(:class:`~homsample.sampling.SampleBlock`) at once: the
:mod:`homsample.metrics` kernels, ``pi`` and the ratio denominators are
gathered once per block, each row's totals are the pairwise sums of its
own slice, and each row is checked as one sample is, so a row's estimate
or invalid reason is bit for bit that of its sample alone.
:func:`estimate_metric` is the one-row case. Node homophily is a mean of
per-node ratios, not an edge total, and is only offered as a plug-in on
the sampled subgraph; its node sums, like the variance's, are
:func:`~homsample.metrics.node_sums`, which the exact metric uses too.
:func:`ht_total` and :func:`ht_variance` give the HT total of any
per-edge values and its variance on one sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    node_sums,
    same_label_values,
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


def _block_pi(g: Graph, incl: InclusionModel, ids: np.ndarray, offsets: np.ndarray,
              invalid: dict) -> np.ndarray:
    """``incl.pi`` of the edges ``ids``, rows at ``offsets``.

    A value below PI_FLOOR contradicts its row's realization: the row goes
    into ``invalid`` (unless a check before made it invalid) with its first
    such edge named, and the value reads 1 so that dividing by it is quiet.
    """
    pi = incl.pi[ids]
    bad = np.flatnonzero(pi < PI_FLOOR)
    if len(bad):
        rows, first = np.unique(np.searchsorted(offsets, bad, side="right") - 1,
                                return_index=True)
        for row, pos in zip(rows.tolist(), bad[first].tolist()):
            invalid.setdefault(row, _floor_error(g, ids[pos], pi[pos], incl.source))
        pi[bad] = 1.0
    return pi


def _positive_pi(sample: SampledGraph, incl: InclusionModel) -> np.ndarray:
    """``incl.pi`` of the sampled edges; a value below PI_FLOOR contradicts the realization."""
    invalid = {}
    pi = _block_pi(sample.parent, incl, sample.edge_index, row_offsets([sample.edge_count]),
                   invalid)
    if invalid:
        raise invalid[0]
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


def _weights(g: Graph, ids: np.ndarray, scale: float) -> np.ndarray:
    """``scale * edge_w`` at the edges ``ids``, computed in the one array."""
    weights = g.edge_w[ids]
    weights *= scale
    return weights


def _flag(invalid: dict, rows: np.ndarray, message: str):
    """Record ``message`` for the flagged rows that no earlier check made invalid."""
    for row in np.flatnonzero(rows).tolist():
        invalid.setdefault(row, DegenerateSampleError(message))


def ht_total(sample: SampledGraph, values, incl: InclusionModel) -> float:
    """Sum of observed values weighted by reciprocal inclusion probabilities."""
    values = _sampled_values(sample, values)
    if sample.edge_count == 0:
        return 0.0
    return float((values / _positive_pi(sample, incl)).sum())


def _span_variance(q: float, ss: float, total: float, m: int, pairs3: int, pi: float,
                   incl: InclusionModel, clamp_negative: bool) -> tuple[float, str]:
    """:func:`ht_variance` of m sampled edges with values V from their sums:
    ``q = V @ V``, ``ss = S @ S`` over the node sums S, ``total = V.sum()``,
    ``pairs3`` ordered pairs spanning 3 nodes and the edges' common ``pi``."""
    if m == 0:
        return 0.0, VARIANCE_EXACT
    a = ss - 2.0 * q
    d = total ** 2 - q - a
    pairs4 = m * m - m - pairs3
    joint = incl.joint_by_span
    for span, pairs in ((3, pairs3), (4, pairs4)):
        if pairs and joint[span] <= 0:
            raise DegenerateSampleError(
                f"{pairs} observed ordered edge pairs spanning {span} nodes have joint "
                f"inclusion probability 0 under the {incl.source} model, which "
                "contradicts this realization")
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


def _row_span_variances(g: Graph, ids: np.ndarray, rows: _Rows, values: np.ndarray,
                        pi: np.ndarray, incl: InclusionModel, invalid: dict,
                        clamp_negative: bool) -> list:
    """:func:`_span_variance` of each row of the edges ``ids`` that is not
    ``invalid`` ((None, None) for those); a row with a zero joint joins ``invalid``.

    Totals and node sums come for all rows at once; the dot products are
    one BLAS ``@`` per row, as on that row's sample alone.
    """
    sums, degrees, node_lengths = node_sums(g, ids, rows.lengths, values)
    node_rows = _Rows(row_offsets(node_lengths))
    degree_sq = row_offsets(degrees * degrees)[node_rows.offsets]
    pairs3 = (np.diff(degree_sq) - 2 * rows.lengths).tolist()
    totals = rows.sums(values).tolist()
    bounds, node_bounds = rows.offsets.tolist(), node_rows.offsets.tolist()
    out = []
    for row, m in enumerate(rows.lengths.tolist()):
        if row in invalid:
            out.append((None, None))
            continue
        v = values[bounds[row]:bounds[row + 1]]
        s = sums[node_bounds[row]:node_bounds[row + 1]]
        try:
            out.append(_span_variance(float(v @ v), float(s @ s), totals[row], m, pairs3[row],
                                      float(pi[bounds[row]]) if m else 0.0, incl,
                                      clamp_negative))
        except DegenerateSampleError as exc:
            invalid[row] = exc
            out.append((None, None))
    return out


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
    pi = _positive_pi(sample, incl)
    invalid = {}
    (var,) = _row_span_variances(sample.parent, sample.edge_index,
                                 _Rows(row_offsets([sample.edge_count])), values, pi, incl,
                                 invalid, clamp_negative)
    if invalid:
        raise invalid[0]
    return var


class SweepColumns:
    """Per-edge columns of one graph, signal and inclusion model, estimated a block at a time.

    An experiment builds one per sweep value and estimates each block of
    replications with :meth:`estimate_block`; :func:`estimate_metric` is
    its one-row case, so every estimate runs the same code:

    - each ``EDGE_METRICS`` kernel, and node homophily's same-label
      indicator, is gathered at the block's edge ids from its column over
      all m edges, built the first time a block holds m ids or more, or
      evaluated on those ids when the block holds fewer;
    - ``pi``, with its floor test, and each ratio's ``scale * edge_w`` are
      gathered once per block;
    - a row's totals are the 1-D pairwise sums of its contiguous slice
      (``_Rows.sums``), node sums come from one bincount over
      ``row * n + node`` (:func:`~homsample.metrics.node_sums`), and the
      span-variance dot products are one BLAS ``@`` per row.

    A kernel is elementwise in the edges, so every gathered value has the
    bits of a kernel on one row's sample alone, and so has each row's
    estimate. A row fails the checks in the order one sample does: the pi
    floor, then a zero denominator or a zero joint, then a non-finite point.
    """

    def __init__(self, g: Graph, signal: GraphSignal, incl: InclusionModel | None):
        self.graph = g
        self.signal = signal
        self.incl = incl
        self._columns = {}
        self._block = self._block_rows = None

    @cached_property
    def total_weight(self) -> float:
        return total_edge_weight(self.graph)

    def _gather(self, kernel, ids: np.ndarray) -> np.ndarray:
        column = self._columns.get(kernel)
        if column is None:
            if len(ids) < self.graph.edge_count:
                return kernel(self.graph, self.signal, ids)
            column = self._columns[kernel] = kernel(self.graph, self.signal)
        return column[ids]

    def _rows(self, block: SampleBlock) -> _Rows:
        # a block's metrics share its rows
        if block is not self._block:
            self._block, self._block_rows = block, _Rows(block.offsets)
        return self._block_rows

    def estimate_block(self, block: SampleBlock, kind: str, mode: str) -> list:
        """One entry per row of ``block``, a block of this graph: the row's
        :func:`estimate_metric` report, or the DegenerateSampleError it raises."""
        _check_request(kind, mode, self.incl)
        if block.parent is not self.graph:
            raise ValueError("sample is not drawn from the graph of these columns")
        g, ids, rows = self.graph, block.edge_index, self._rows(block)
        invalid = {}   # row -> the error of the first check it fails
        variances = None

        if kind == NODE_HOMOPHILY:
            _flag(invalid, rows.lengths == 0, "no sampled edges; node homophily undefined")
            sums, counts, node_lengths = node_sums(g, ids, rows.lengths,
                                                   self._gather(same_label_values, ids))
            node_rows = _Rows(row_offsets(node_lengths))
            points = _quotients(node_rows.sums(sums / counts), node_rows.lengths)
        else:
            kernel, scale = EDGE_METRICS[kind]
            values = self._gather(kernel, ids)
            if mode == PLUG_IN:
                den = np.ones(block.rows) if scale is None else rows.sums(_weights(g, ids, scale))
                _flag(invalid, den == 0.0, "empty sample; plug-in ratio undefined")
                points = _quotients(rows.sums(values), den)
            elif mode == HAJEK_RATIO:
                pi = _block_pi(g, self.incl, ids, rows.offsets, invalid)
                weighted = _weights(g, ids, scale)
                weighted /= pi
                den = rows.sums(weighted)
                _flag(invalid, den == 0.0, "zero HT denominator (empty or degenerate sample)")
                points = _quotients(rows.sums(np.divide(values, pi, out=weighted)), den)
            else:  # ht_total, or known_denominator
                den = 1.0 if scale is None else scale * self.total_weight
                if den <= 0:
                    raise ValueError("parent graph has no edge weight")
                pi = _block_pi(g, self.incl, ids, rows.offsets, invalid)
                points = _quotients(rows.sums(values / pi), den)
                if self.incl.has_joint:
                    variances = _row_span_variances(g, ids, rows, values, pi, self.incl,
                                                    invalid, True)

        _flag(invalid, ~np.isfinite(points), f"non-finite estimate for {kind}/{mode}")
        if variances is None:
            variances = [(None, VARIANCE_UNSUPPORTED)] * block.rows
        reports = []
        for row, (point, (variance, status), nodes, edges, design, seed) in enumerate(zip(
                points.tolist(), variances, block.sampled_nodes.tolist(), rows.lengths.tolist(),
                block.design_dicts, block.seeds)):
            if row in invalid:
                reports.append(invalid[row])
            else:
                if variance is not None:
                    variance /= den ** 2
                reports.append(EstimateReport(kind, mode, point, variance, status, nodes, edges,
                                              design, seed))
        return reports


def estimate_metric(sample: SampledGraph, signal: GraphSignal, kind: str, mode: str,
                    incl: InclusionModel | None = None) -> EstimateReport:
    """Estimate one homophily metric from a sampled graph.

    Edge metrics take their per-edge kernel and scale from ``EDGE_METRICS``:
    a total divides by 1, a ratio by the scale times the total edge weight
    of the sample ("plug_in"), its HT estimate ("hajek_ratio") or the parent
    graph ("known_denominator"). ``incl`` is required unless "plug_in".
    Degenerate realizations (an empty sample under a ratio mode, or an edge
    the model gives probability 0) raise DegenerateSampleError. This is
    the one-row case of :meth:`SweepColumns.estimate_block`, which
    evaluates the kernels on the sampled edges alone.
    """
    (report,) = SweepColumns(sample.parent, signal, incl).estimate_block(
        SampleBlock.of(sample), kind, mode)
    if isinstance(report, DegenerateSampleError):
        raise report
    return report
