"""Edge inclusion probabilities: the model type, traceroute's betweenness
approximation and the Monte Carlo oracle.

Each design builds its own analytic model with ``design.inclusion(g)``
(see :mod:`homsample.sampling`). Induced designs admit exact closed forms:
Bernoulli node retention gives ``pi = p^2`` per edge and ``p^k`` for an
edge pair spanning k distinct nodes; SRS gives falling-factorial ratios.
Both are stored as a per-k table (``joint_by_span``), from which the HT
variance is computed in O(sampled edges) without any edge-pair array; the
dense edge x edge joint (``joint_matrix``) serves empirical joint tables,
which are capped at ``_JOINT_EDGE_LIMIT`` edges. Traceroute inclusion
is approximated through ordered-pair edge betweenness,
``pi ~= 1 - exp(-b * n_S * n_T / n^2)``; no joint probabilities are
available there, so variance estimation is unsupported under traceroute.
A Monte Carlo oracle (``empirical_pi``) estimates inclusion frequencies by
replaying any design's ``realize`` and is the fallback authority when the
approximation is in doubt.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph
from .rng import child_rng
from .shortest_paths import path_dag

if TYPE_CHECKING:
    from .sampling import SampleDesign

# dense edge x edge joint tables (empirical, or the joint_matrix accessor)
# refuse more edges than this
_JOINT_EDGE_LIMIT = 4000


class JointUnavailableError(ValueError):
    """The design provides no joint inclusion probabilities."""


class DegenerateSampleError(ValueError):
    """The realization cannot support the requested estimator.

    Raised for a zero ratio denominator or an empty sample, and for a
    sampled edge (or edge pair) that the inclusion model gives probability
    0, which an undersized empirical oracle produces. The experiment
    harness records such a replication as invalid.
    """


def _shared_count_matrix(ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """Pairwise count of shared endpoints between edges (i<j storage)."""
    same = (ei[:, None] == ei[None, :]).astype(np.int64)
    same += ei[:, None] == ej[None, :]
    same += ej[:, None] == ei[None, :]
    same += ej[:, None] == ej[None, :]
    return same


@dataclass(frozen=True, eq=False)
class InclusionModel:
    """Per-edge inclusion probabilities plus (when defined) pairwise joints.

    ``pi`` is aligned with the parent graph's edge arrays; entries of 0
    mark edges the design can never sample. Joints come from one of two
    sources: ``joint_by_span[k]`` is the closed-form joint probability of
    an edge pair spanning k distinct nodes (k = 2..4), and ``joint_freq``
    is an empirical edge x edge co-occurrence table, which takes
    precedence. With neither, joints are unavailable. A closed-form model
    gives every edge the same ``pi``.
    """

    source: str
    pi: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    joint_by_span: np.ndarray | None = None
    joint_freq: np.ndarray | None = None

    @property
    def sampleable(self) -> np.ndarray:
        return self.pi > 0

    @property
    def has_joint(self) -> bool:
        return self.joint_by_span is not None or self.joint_freq is not None

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

    def joint_matrix(self, edge_ids: np.ndarray) -> np.ndarray:
        """Pairwise joint inclusion probabilities for the given edges.

        The diagonal equals ``pi``. Raises JointUnavailableError when the
        design has no joint model, and ValueError for more than
        ``_JOINT_EDGE_LIMIT`` edges, before allocating the dense table.
        """
        if len(edge_ids) > _JOINT_EDGE_LIMIT:
            raise ValueError(f"a dense joint matrix over {len(edge_ids)} edges needs "
                             f"{len(edge_ids)}^2 entries; limit is {_JOINT_EDGE_LIMIT} edges")
        if self.joint_freq is not None:
            return self.joint_freq[np.ix_(edge_ids, edge_ids)]
        if self.joint_by_span is None:
            raise JointUnavailableError(f"{self.source}: joint inclusion probabilities unavailable")
        span = 4 - _shared_count_matrix(self.edge_i[edge_ids], self.edge_j[edge_ids])
        joint = self.joint_by_span[span]
        np.fill_diagonal(joint, self.pi[edge_ids])
        return joint

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "pi": [float(x) for x in self.pi],
            "sampleable": [bool(x) for x in self.sampleable],
            "has_joint": self.has_joint,
        }


@dataclass(frozen=True, eq=False)
class BetweennessTable:
    """Ordered-pair edge betweenness, aligned with the graph's edges.

    ``values[e]`` sums sigma_st(e) / sigma_st over all ordered pairs
    (s, t), s != t; for undirected graphs this is twice the per-unordered-
    pair accumulation.
    """

    values: np.ndarray

    def write_csv(self, g: Graph, stream):
        writer = csv.writer(stream)
        writer.writerow(["i", "j", "b"])
        for i, j, b in zip(g.edge_i, g.edge_j, self.values):
            writer.writerow([int(i), int(j), repr(float(b))])


def edge_betweenness(g: Graph) -> BetweennessTable:
    """Shortest-path edge betweenness via per-source dependency accumulation."""
    b = np.zeros(g.edge_count)
    for s in range(g.node_count):
        dag = path_dag(g, s)
        sigma = dag.sigma
        delta = np.zeros(g.node_count)
        for w in dag.order[::-1]:
            coef = (1.0 + delta[w]) / sigma[w]
            for v, eid in zip(dag.preds[w], dag.pred_eids[w]):
                c = sigma[v] * coef
                b[eid] += c
                delta[v] += c
    return BetweennessTable(b)


def approx_pi_traceroute(b: BetweennessTable, n_sources: int, n_targets: int, n: int) -> np.ndarray:
    """Traceroute inclusion approximation 1 - exp(-b * n_S * n_T / n^2).

    Edges with zero betweenness get pi = 0 (unsampleable flag); every edge
    of a simple graph lies on the shortest path of its own endpoints, so
    this only occurs for degenerate inputs.
    """
    rate = b.values * (n_sources * n_targets) / float(n * n)
    pi = -np.expm1(-rate)
    return np.where(b.values > 0, np.minimum(pi, 1.0), 0.0)


def empirical_pi(g: Graph, design: SampleDesign, replications: int,
                 want_joint: bool = False) -> InclusionModel:
    """Monte Carlo inclusion frequencies over independent design realizations.

    Replication r draws from a fresh stream seeded by (design.seed, r).
    Edges never observed keep pi = 0 and are flagged unsampleable. With
    ``want_joint`` pairwise co-occurrence frequencies are tabulated too
    (dense edge x edge, small graphs only).
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    design.validate(g.node_count)
    if want_joint and g.edge_count > _JOINT_EDGE_LIMIT:
        raise ValueError(f"joint tabulation needs a dense {g.edge_count}^2 table; "
                         f"limit is {_JOINT_EDGE_LIMIT} edges")
    counts = np.zeros(g.edge_count, dtype=np.int64)
    pair_counts = np.zeros((g.edge_count, g.edge_count), dtype=np.int64) if want_joint else None
    base = int(design.seed)
    for r in range(replications):
        ids = design.realize(g, child_rng(base, r)).edge_index
        counts[ids] += 1
        if want_joint and len(ids):
            pair_counts[np.ix_(ids, ids)] += 1
    return InclusionModel(
        source=f"empirical:{design.kind}",
        pi=counts / replications,
        edge_i=g.edge_i,
        edge_j=g.edge_j,
        joint_freq=(pair_counts / replications) if want_joint else None,
    )


def inclusion_for(g: Graph, design: SampleDesign,
                  source: str = "analytic", replications: int = 100_000,
                  want_joint: bool = False) -> InclusionModel:
    """Build the inclusion model a design calls for.

    ``source="analytic"`` returns ``design.inclusion(g)``: exact
    probabilities for induced designs and the betweenness approximation
    for traceroute (joint unavailable); ``source="empirical"`` runs the
    Monte Carlo oracle.
    """
    if source == "empirical":
        return empirical_pi(g, design, replications, want_joint=want_joint)
    if source != "analytic":
        raise ValueError(f"unknown inclusion source {source!r}")
    design.validate(g.node_count)
    return design.inclusion(g)
