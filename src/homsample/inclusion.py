"""Edge inclusion probabilities: the model type, traceroute's betweenness
approximation and the Monte Carlo oracle.

Each design builds its own analytic model with ``design.inclusion(g)``
(see :mod:`homsample.sampling`). Induced designs admit exact closed forms:
Bernoulli node retention gives ``pi = p^2`` per edge and ``p^k`` for an
edge pair spanning k distinct nodes; SRS gives falling-factorial ratios.
Both are stored as a per-k table (``joint_by_span``), from which the HT
variance is computed in O(sampled edges) without any edge-pair array; a
zero joint can only come from a span class of that table. Traceroute
inclusion is approximated through ordered-pair edge betweenness,
``pi ~= 1 - exp(-b * n_S * n_T / n^2)``; no joint probabilities are
available there, so variance estimation is unsupported under traceroute.
A Monte Carlo oracle (``empirical_pi``) estimates inclusion frequencies
from a design's realizations, all drawn one after another from the one
stream of the design's seed through the design's ``edge_counts``, a block
of realizations at a time with no generator per realization: induced
designs find a block's induced edges in one step, and traceroute
backtracks every target of a source at once. It is the fallback
authority when the approximation is in doubt; it estimates ``pi`` only,
so its models carry no joints. A model is only its source, ``pi`` and
span table; the estimators check a realization against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph
from .rng import make_rng
from .shortest_paths import path_dag

if TYPE_CHECKING:
    from .sampling import SampleDesign


@dataclass(frozen=True, eq=False)
class InclusionModel:
    """Per-edge inclusion probabilities plus (when defined) pairwise joints; data only.

    ``pi`` is aligned with the parent graph's edge arrays; entries of 0
    mark edges the design can never sample. ``joint_by_span[k]`` is the
    closed-form joint probability of an edge pair spanning k distinct
    nodes (k = 2..4); without it joints are unavailable. A closed-form
    model gives every edge the same ``pi``.
    """

    source: str
    pi: np.ndarray
    joint_by_span: np.ndarray | None = None

    @property
    def has_joint(self) -> bool:
        return self.joint_by_span is not None


def edge_betweenness(g: Graph) -> np.ndarray:
    """Ordered-pair edge betweenness, aligned with the graph's edges.

    Entry e sums sigma_st(e) / sigma_st over all ordered pairs (s, t),
    s != t, by per-source dependency accumulation; for undirected graphs
    this is twice the per-unordered-pair accumulation. Each source's
    dependencies are accumulated one BFS level at a time, deepest first;
    walking a level's predecessor slice backwards adds every term to
    ``b`` and ``delta`` in the order of a node-at-a-time Brandes loop
    over the nodes in reverse BFS order, so the sums are bitwise its sums.

    The result is read-only and kept on the graph, as its CSR arrays are:
    betweenness does not depend on a traceroute design's source and target
    counts, so a sweep over them computes it once. Its 8*m bytes are a
    fixed per-graph array, so only the DAGs count against the cache budget.
    """
    if g._betweenness is not None:
        return g._betweenness
    b = np.zeros(g.edge_count)
    for s in range(g.node_count):
        dag = path_dag(g, s)
        sigma, order, levels = dag.sigma, dag.order, dag.levels
        delta = np.zeros(g.node_count)
        for d in range(len(levels) - 2, 0, -1):
            w = order[levels[d]:levels[d + 1]][::-1]
            lo, hi = dag.pred_lo[w[-1]], dag.pred_hi[w[0]]
            v = dag.pred[lo:hi][::-1]
            coef = np.repeat((1.0 + delta[w]) / sigma[w], dag.pred_hi[w] - dag.pred_lo[w])
            c = sigma[v] * coef
            b[dag.pred_eid[lo:hi][::-1]] += c
            np.add.at(delta, v, c)
    b.flags.writeable = False
    g._betweenness = b
    return b


def approx_pi_traceroute(b: np.ndarray, n_sources: int, n_targets: int, n: int) -> np.ndarray:
    """Traceroute inclusion approximation 1 - exp(-b * n_S * n_T / n^2).

    Edges with zero betweenness get pi = 0 (unsampleable flag); every edge
    of a simple graph lies on the shortest path of its own endpoints, so
    this only occurs for degenerate inputs.
    """
    rate = b * (n_sources * n_targets) / float(n * n)
    return np.where(b > 0, -np.expm1(-rate), 0.0)


def empirical_pi(g: Graph, design: SampleDesign, replications: int) -> InclusionModel:
    """Monte Carlo inclusion frequencies over independent design realizations.

    All replications draw, one after another, from the one stream
    ``make_rng(design.seed)``, through the design's ``edge_counts``, so the
    model is a deterministic function of (graph, design, seed,
    replications). Edges never observed keep pi = 0, which marks them
    unsampleable.
    """
    design.validate(g.node_count)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    counts = design.edge_counts(g, make_rng(design.seed), replications)
    return InclusionModel(
        source=f"empirical:{design.kind}",
        pi=counts / replications,
    )


def inclusion_for(g: Graph, design: SampleDesign,
                  source: str = "analytic", replications: int = 100_000) -> InclusionModel:
    """Build the inclusion model a design calls for.

    ``source="analytic"`` returns ``design.inclusion(g)``: exact
    probabilities for induced designs and the betweenness approximation
    for traceroute (joint unavailable); ``source="empirical"`` runs the
    Monte Carlo oracle.
    """
    if source == "empirical":
        return empirical_pi(g, design, replications)
    if source != "analytic":
        raise ValueError(f"unknown inclusion source {source!r}")
    design.validate(g.node_count)
    return design.inclusion(g)
