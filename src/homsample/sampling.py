"""Network sampling designs: Bernoulli-induced, SRS-induced, traceroute.

Every design is a frozen dataclass carrying its parameters and a seed, and
owns its mechanics: ``realize(g, rng)`` draws one sample from a given
stream, and ``inclusion(g)`` builds its analytic inclusion model.
``draw_sample(graph, design)`` realizes a design on the stream of its seed,
so it is a pure function of that pair. Induced designs observe exactly the
edges with both endpoints in the sampled node set; traceroute observes the
union of edges on one random shortest path per source-target pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .graph import Graph
from .inclusion import InclusionModel, approx_pi_traceroute, edge_betweenness
from .rng import DEFAULT_SEED, make_rng
from .shortest_paths import path_dag, sample_path


def _falling(a: int, m: int) -> float:
    out = 1.0
    for k in range(m):
        out *= a - k
    return out


@dataclass(frozen=True)
class BernoulliDesign:
    """Independent node retention with probability p, induced edges."""

    p: float
    seed: int = DEFAULT_SEED
    kind = "bernoulli"

    def validate(self, n: int):
        if not 0 < self.p <= 1:
            raise ValueError(f"p must be in (0, 1], got {self.p}")

    def params(self) -> dict:
        return {"p": self.p}

    def realize(self, g: Graph, rng) -> "SampledGraph":
        nodes = bernoulli_node_sample(g, self.p, rng)
        return SampledGraph(self, g, nodes, induced_edge_ids(g, nodes))

    def inclusion(self, g: Graph) -> InclusionModel:
        """pi = p^2 per edge; an edge pair spanning k nodes is joint with p^k."""
        return InclusionModel(source="analytic:bernoulli", pi=np.full(g.edge_count, self.p ** 2),
                              joint_by_span=self.p ** np.arange(5.0))


@dataclass(frozen=True)
class SrsDesign:
    """Uniform node subset of fixed size without replacement, induced edges."""

    n_star: int
    seed: int = DEFAULT_SEED
    kind = "srs"

    def validate(self, n: int):
        if not 1 <= self.n_star <= n:
            raise ValueError(f"n_star must be in [1, {n}], got {self.n_star}")

    def params(self) -> dict:
        return {"n_star": self.n_star}

    def realize(self, g: Graph, rng) -> "SampledGraph":
        nodes = srs_node_sample(g, self.n_star, rng)
        return SampledGraph(self, g, nodes, induced_edge_ids(g, nodes))

    def inclusion(self, g: Graph) -> InclusionModel:
        """pi and k-node joints are falling-factorial ratios, 0 when n_star < k."""
        n = g.node_count
        pi = self.n_star * (self.n_star - 1) / (n * (n - 1)) if n > 1 else 0.0
        by_span = np.zeros(5)
        for k in range(5):
            denom = _falling(n, k)
            by_span[k] = _falling(self.n_star, k) / denom if denom > 0 else 0.0
        return InclusionModel(source="analytic:srs", pi=np.full(g.edge_count, pi),
                              joint_by_span=by_span)


@dataclass(frozen=True)
class TracerouteDesign:
    """Edges discovered along shortest paths between sampled sources and targets.

    Sources and targets are two independent SRS draws (overlap allowed);
    source = target pairs contribute nothing.
    """

    n_sources: int
    n_targets: int
    seed: int = DEFAULT_SEED
    kind = "traceroute"

    def validate(self, n: int):
        for name, value in (("n_sources", self.n_sources), ("n_targets", self.n_targets)):
            if not 1 <= value <= n:
                raise ValueError(f"{name} must be in [1, {n}], got {value}")

    def params(self) -> dict:
        return {"n_sources": self.n_sources, "n_targets": self.n_targets}

    def realize(self, g: Graph, rng) -> "SampledGraph":
        """Union of one random shortest path per source-target pair.

        Sampled nodes are exactly the endpoints of sampled edges; unreachable
        pairs are skipped and counted in ``meta``.
        """
        sources = srs_node_sample(g, self.n_sources, rng)
        targets = srs_node_sample(g, self.n_targets, rng)
        seen = np.zeros(g.edge_count, dtype=bool)
        paths = []
        skipped = 0
        for s in sources:
            dag = path_dag(g, int(s))
            for t in targets:
                if s == t:
                    continue
                res = sample_path(dag, int(t), rng)
                if res is None:
                    skipped += 1
                    continue
                nodes, eids = res
                seen[eids] = True
                paths.append(tuple(nodes))
        ids = np.nonzero(seen)[0]
        nodes = np.unique(np.concatenate([g.edge_i[ids], g.edge_j[ids]])) if len(ids) else np.empty(0, dtype=np.int64)
        return SampledGraph(self, g, nodes, ids, paths=tuple(paths),
                            meta={"skipped_pairs": skipped,
                                  "pair_rule": "sources and targets drawn by independent SRS; s=t pairs skipped"})

    def inclusion(self, g: Graph) -> InclusionModel:
        """Betweenness approximation of pi; no joint probabilities."""
        pi = approx_pi_traceroute(edge_betweenness(g), self.n_sources, self.n_targets, g.node_count)
        return InclusionModel(source="traceroute-approx", pi=pi)


SampleDesign = Union[BernoulliDesign, SrsDesign, TracerouteDesign]

_DESIGN_TYPES = {"bernoulli": BernoulliDesign, "srs": SrsDesign, "traceroute": TracerouteDesign}


def design_to_dict(design: SampleDesign) -> dict:
    return {"kind": design.kind, "seed": design.seed, **design.params()}


def design_from_dict(d: dict) -> SampleDesign:
    d = dict(d)
    kind = d.pop("kind", None)
    try:
        cls = _DESIGN_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown design kind {kind!r}") from None
    try:
        return cls(**d)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind!r} design: {exc}") from None


def with_seed(design: SampleDesign, seed: int) -> SampleDesign:
    return replace(design, seed=int(seed))


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Observed subgraph with provenance.

    ``edge_index`` holds the ids of the sampled edges in ``parent``, so
    endpoints, weights and per-edge values are read from the parent
    graph's edge arrays, and inclusion probabilities from a model's
    ``pi``, which is aligned with them. ``design`` is None for subgraphs
    built directly from a node set.
    """

    design: SampleDesign | None
    parent: Graph
    nodes: np.ndarray
    edge_index: np.ndarray
    paths: tuple | None = None
    meta: dict | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_index)

    def to_json_dict(self, incl: InclusionModel | None = None) -> dict:
        """JSON form; each edge's ``pi`` is read from ``incl``, or null without it."""
        g, ids = self.parent, self.edge_index
        pi = incl.pi[ids].tolist() if incl is not None else [None] * self.edge_count
        out = {
            "design": design_to_dict(self.design) if self.design is not None else None,
            "seed": self.design.seed if self.design is not None else None,
            "parent_node_count": g.node_count,
            "nodes": [int(v) for v in self.nodes],
            "edges": [
                {"i": int(i), "j": int(j), "w": float(w), "pi": p}
                for i, j, w, p in zip(g.edge_i[ids], g.edge_j[ids], g.edge_w[ids], pi)
            ],
        }
        if self.paths is not None:
            out["paths"] = [list(map(int, p)) for p in self.paths]
        if self.meta:
            out["meta"] = self.meta
        return out


def bernoulli_node_sample(g: Graph, p: float, rng) -> np.ndarray:
    """Each node retained independently with probability p, in node order."""
    return np.nonzero(rng.random(g.node_count) < p)[0]


def srs_node_sample(g: Graph, n_star: int, rng) -> np.ndarray:
    """Uniform size-n_star node subset without replacement, sorted."""
    return np.sort(rng.choice(g.node_count, size=n_star, replace=False))


def induced_edge_ids(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Parent ids of edges with both endpoints in ``nodes``."""
    mask = np.zeros(g.node_count, dtype=bool)
    mask[nodes] = True
    return np.nonzero(mask[g.edge_i] & mask[g.edge_j])[0]


def induced_subgraph(g: Graph, nodes, design: SampleDesign | None = None) -> SampledGraph:
    """Subgraph induced by a node set (inclusion probabilities unfilled)."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64).ravel())
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.node_count):
        raise ValueError(f"node id out of range [0, {g.node_count})")
    return SampledGraph(design, g, nodes, induced_edge_ids(g, nodes))


def draw_sample(g: Graph, design: SampleDesign) -> SampledGraph:
    """Realize a design on a graph; deterministic in (graph, design, seed)."""
    design.validate(g.node_count)
    return design.realize(g, make_rng(design.seed))
