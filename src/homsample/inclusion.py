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
stream of the seed it is given through the design's ``edge_counts``, a block
of realizations at a time with no generator per realization: induced
designs find a block's induced edges in one step, and traceroute walks
every (row, source, target) path of a block back at once, one uniform a
hop, over the gathered DAGs of the block's sources. It is the fallback
authority when the approximation is in doubt; it estimates ``pi`` only,
so its models carry no joints. A model is only its source, ``pi`` and
span table; the estimators check a realization against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph
from .rng import derive_seed, make_rng

if TYPE_CHECKING:
    from .sampling import SampleDesign

# realizations the empirical oracle draws unless told otherwise
DEFAULT_PI_REPLICATIONS = 100_000


@dataclass(frozen=True, eq=False)
class InclusionModel:
    """Per-edge inclusion probabilities plus (when defined) pairwise joints; data only.

    ``pi`` is aligned with the parent graph's edge arrays; entries of 0
    mark edges the design can never sample. ``joint_by_span[k]`` is the
    closed-form joint probability of an edge pair spanning k distinct
    nodes (k = 2..4); without it joints are unavailable. A closed-form
    model gives every edge the same ``pi``: the variance reads a row's
    ``pi`` from its first edge, so a span table with a ``pi`` that varies
    is refused.
    """

    source: str
    pi: np.ndarray
    joint_by_span: np.ndarray | None = None

    def __post_init__(self):
        if self.joint_by_span is not None and len(self.pi) and (self.pi != self.pi[0]).any():
            raise ValueError(f"the {self.source} model has a span table, which needs the same "
                             "pi on every edge, but its pi varies from edge to edge")

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
    from .shortest_paths import path_dag   # traceroute code alone needs it

    b = np.zeros(g.edge_count)
    for s in range(g.node_count):
        dag = path_dag(g, s)
        sigma, levels = dag.sigma, dag.levels.tolist()
        # the DAG's int32 ids, in intp once: numpy indexes by intp fastest
        order, pred = dag.order.astype(np.intp), dag.pred.astype(np.intp)
        pred_eid = dag.pred_eid.astype(np.intp)
        count = np.subtract(dag.pred_hi, dag.pred_lo, dtype=np.intp)
        delta = np.zeros(g.node_count)
        for d in range(len(levels) - 2, 0, -1):
            w = order[levels[d]:levels[d + 1]][::-1]
            lo, hi = dag.pred_lo[w[-1]], dag.pred_hi[w[0]]
            v = pred[lo:hi][::-1]
            coef = np.repeat((1.0 + delta[w]) / sigma[w], count[w])
            c = sigma[v] * coef
            b[pred_eid[lo:hi][::-1]] += c
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


def check_pi_replications(replications: int) -> int:
    """``replications`` of the empirical oracle, refused below 1."""
    if replications < 1:
        raise ValueError(f"pi replications must be >= 1, got {replications}")
    return replications


def empirical_pi(g: Graph, design: SampleDesign, replications: int,
                 seed: int) -> InclusionModel:
    """Monte Carlo inclusion frequencies over independent design realizations.

    All replications draw, one after another, from the one stream
    ``make_rng(seed)``, through the design's ``edge_counts``, so the
    model is a deterministic function of (graph, design, replications,
    seed). Edges never observed keep pi = 0, which marks them
    unsampleable.
    """
    design.validate(g.node_count)
    check_pi_replications(replications)
    counts = design.edge_counts(g, make_rng(seed), replications)
    return InclusionModel(
        source=f"empirical:{design.kind}",
        pi=counts / replications,
    )


def inclusion_for(g: Graph, design: SampleDesign, source: str = "analytic",
                  replications: int = DEFAULT_PI_REPLICATIONS,
                  seed: int | None = None) -> InclusionModel:
    """Build the inclusion model a design calls for.

    ``source="analytic"`` returns ``design.inclusion(g)``: exact
    probabilities for induced designs and the betweenness approximation
    for traceroute (joint unavailable); ``source="empirical"`` runs the
    Monte Carlo oracle on the stream of ``seed``, which it requires.
    """
    if source == "empirical":
        if seed is None:
            raise ValueError("the empirical inclusion oracle needs a seed")
        return empirical_pi(g, design, replications, seed)
    if source != "analytic":
        raise ValueError(f"unknown inclusion source {source!r}")
    design.validate(g.node_count)
    return design.inclusion(g)


def sweep_inclusion(g: Graph, design: SampleDesign, base_seed: int, sweep_idx: int,
                    source: str, replications: int) -> InclusionModel:
    """Inclusion model for sweep value ``sweep_idx`` of an experiment.

    The empirical oracle draws all its realizations from the auxiliary
    stream ``(base_seed, 2, sweep_idx)``; on the seed of a sample it weights
    it would replay that very sample as its first replication. Analytic
    models do not depend on the seed.
    """
    return inclusion_for(g, design, source=source, replications=replications,
                         seed=derive_seed(base_seed, 2, sweep_idx))
