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
A Monte Carlo oracle (``empirical_pi``) estimates inclusion frequencies by
replaying any design's ``realize`` and is the fallback authority when the
approximation is in doubt; it estimates ``pi`` only, so its models carry
no joints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph
from .rng import child_rng
from .shortest_paths import path_dag, reserve_cache

if TYPE_CHECKING:
    from .sampling import SampleDesign


class DegenerateSampleError(ValueError):
    """The realization cannot support the requested estimator.

    Raised for a zero ratio denominator or an empty sample, for a sampled
    edge that the inclusion model gives probability 0, which an undersized
    empirical oracle produces, and for sampled edge pairs whose span class
    has closed-form joint probability 0. The experiment harness records
    such a replication as invalid.
    """


@dataclass(frozen=True, eq=False)
class InclusionModel:
    """Per-edge inclusion probabilities plus (when defined) pairwise joints.

    ``pi`` is aligned with the parent graph's edge arrays; entries of 0
    mark edges the design can never sample. ``joint_by_span[k]`` is the
    closed-form joint probability of an edge pair spanning k distinct
    nodes (k = 2..4); without it joints are unavailable. A closed-form
    model gives every edge the same ``pi``.
    """

    source: str
    pi: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    joint_by_span: np.ndarray | None = None

    @property
    def has_joint(self) -> bool:
        return self.joint_by_span is not None

    def require_positive(self, edge_ids: np.ndarray, floor: float) -> np.ndarray:
        pi = self.pi[edge_ids]
        bad = np.nonzero(pi < floor)[0]
        if len(bad):
            k = edge_ids[bad[0]]
            raise DegenerateSampleError(
                f"sampled edge ({self.edge_i[k]}, {self.edge_j[k]}) has inclusion "
                f"probability {pi[bad[0]]:g} below the floor {floor:g} under the "
                f"{self.source} model, which contradicts this realization; use the "
                "empirical inclusion oracle (empirical_pi), with more replications "
                "if it produced this model")
        return pi


def edge_betweenness(g: Graph) -> np.ndarray:
    """Ordered-pair edge betweenness, aligned with the graph's edges.

    Entry e sums sigma_st(e) / sigma_st over all ordered pairs (s, t),
    s != t, by per-source dependency accumulation; for undirected graphs
    this is twice the per-unordered-pair accumulation. Each source's
    dependencies are accumulated one BFS level at a time, deepest first;
    walking a level's predecessor slice backwards adds every term to
    ``b`` and ``delta`` in the order of a node-at-a-time Brandes loop
    over the nodes in reverse BFS order, so the sums are bitwise its sums.

    The result is read-only and, when its 8*m bytes fit the graph's
    shortest-path cache budget, kept on the graph: betweenness does not
    depend on a traceroute design's source and target counts, so a sweep
    over them computes it once. Its bytes are reserved before the DAGs
    it builds, so DAGs that overflow the budget do not crowd it out.
    """
    if g._betweenness is not None:
        return g._betweenness
    # reserved before the source loop, whose DAGs would otherwise fill the budget first
    keep = reserve_cache(g, 8 * g.edge_count)
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
    if keep:
        g._betweenness = b
    return b


def approx_pi_traceroute(b: np.ndarray, n_sources: int, n_targets: int, n: int) -> np.ndarray:
    """Traceroute inclusion approximation 1 - exp(-b * n_S * n_T / n^2).

    Edges with zero betweenness get pi = 0 (unsampleable flag); every edge
    of a simple graph lies on the shortest path of its own endpoints, so
    this only occurs for degenerate inputs.
    """
    rate = b * (n_sources * n_targets) / float(n * n)
    pi = -np.expm1(-rate)
    return np.where(b > 0, np.minimum(pi, 1.0), 0.0)


def empirical_pi(g: Graph, design: SampleDesign, replications: int) -> InclusionModel:
    """Monte Carlo inclusion frequencies over independent design realizations.

    Replication r draws from a fresh stream seeded by (design.seed, r).
    Edges never observed keep pi = 0, which marks them unsampleable.
    """
    design.validate(g.node_count)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    counts = np.zeros(g.edge_count, dtype=np.int64)
    base = int(design.seed)
    for r in range(replications):
        counts[design.realize(g, child_rng(base, r)).edge_index] += 1
    return InclusionModel(
        source=f"empirical:{design.kind}",
        pi=counts / replications,
        edge_i=g.edge_i,
        edge_j=g.edge_j,
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
